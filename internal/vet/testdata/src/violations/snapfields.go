package violations

import "vetfixture/snapshot"

// BadState forgets its fills counter in both codec directions: a restore
// silently resets the counter, diverging from the saved run.
type BadState struct {
	clock uint64
	fills uint64 // want: snapshotfields
}

// Tick mutates both counters, so neither is constructor-exempt.
func (b *BadState) Tick(filled bool) {
	b.clock++
	if filled {
		b.fills++
	}
}

func (b *BadState) SaveState(e *snapshot.Encoder)    { e.U64(b.clock) }
func (b *BadState) RestoreState(d *snapshot.Decoder) { b.clock = d.U64() }

// HalfState saves fills but forgets to restore it — the payload carries
// the value and the decoder walks right past it, corrupting every field
// decoded after this one.
type HalfState struct {
	clock uint64
	fills uint64 // want: snapshotfields
}

func (h *HalfState) Tick() {
	h.clock++
	h.fills++
}

func (h *HalfState) SaveState(e *snapshot.Encoder) {
	e.U64(h.clock)
	e.U64(h.fills)
}

func (h *HalfState) RestoreState(d *snapshot.Decoder) { h.clock = d.U64() }

// TrailState exempts its scratch field with a trailing directive. A
// trailing directive covers its own line only, so the next field, which
// the codec forgets, is still reported.
type TrailState struct {
	clock   uint64
	scratch uint64 //mayavet:ignore snapshotfields -- per-call scratch; dead between calls
	fills   uint64 // want: snapshotfields
}

func (s *TrailState) Tick() {
	s.clock++
	s.scratch++
	s.fills++
}

func (s *TrailState) SaveState(e *snapshot.Encoder)    { e.U64(s.clock) }
func (s *TrailState) RestoreState(d *snapshot.Decoder) { s.clock = d.U64() }
