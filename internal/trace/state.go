package trace

import (
	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful for the synthetic generator. The
// Zipf sampler holds only parameters precomputed from the profile plus
// the shared RNG, so the RNG words and the walk positions are the entire
// mutable state.
func (g *gen) SaveState(e *snapshot.Encoder) {
	e.RNG(g.r)
	e.U64(g.scanPos)
	e.U64(g.streamPos)
	e.U64(g.stridePos)
	e.U64(g.curLine)
	e.Bool(g.curWrite)
	e.Int(g.repeatsLeft)
}

// StateBound implements snapshot.Stateful: the RNG, the four walk
// positions, the write flag and the repeat count.
func (*gen) StateBound() int { return snapshot.RNGBytes + 4*8 + 1 + 8 }

// RestoreState implements snapshot.Stateful on a generator freshly built
// from the same profile, core ID, and seed.
func (g *gen) RestoreState(d *snapshot.Decoder) error {
	d.RNG(g.r)
	g.scanPos = d.U64()
	g.streamPos = d.U64()
	g.stridePos = d.U64()
	g.curLine = d.U64()
	g.curWrite = d.Bool()
	g.repeatsLeft = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if g.p.ScanLines > 0 && g.scanPos >= uint64(g.p.ScanLines) {
		return &snapshot.CorruptError{At: "trace gen", Detail: "scanPos out of range"}
	}
	if g.p.StrideCount > 0 && g.stridePos >= uint64(g.p.StrideCount) {
		return &snapshot.CorruptError{At: "trace gen", Detail: "stridePos out of range"}
	}
	if g.repeatsLeft < 0 || g.repeatsLeft >= max(g.p.LineRepeat, 1) {
		return &snapshot.CorruptError{At: "trace gen", Detail: "repeatsLeft out of range"}
	}
	return nil
}

var _ snapshot.Stateful = (*gen)(nil)
