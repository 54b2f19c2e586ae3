// Package trace generates synthetic memory-access traces that stand in for
// the paper's SPEC CPU2017 and GAP ChampSim traces (which are tens of GB
// and not redistributable). Each benchmark is modeled as a mixture of
// access components whose LLC-visible behaviour is what the evaluation
// actually depends on:
//
//   - hot:    a small, Zipf-skewed working set that the private caches
//     mostly absorb (register/L1/L2 locality)
//   - medium: an LLC-scale working set whose reuse distance straddles the
//     12–16MB boundary — the population Maya's reuse filter helps
//   - scan:   a cyclic sequential sweep; when its footprint exceeds the
//     LLC, RRIP-family policies collapse to ~0% hit rate while
//     random replacement retains capacity/footprint of it (the
//     mechanism behind the GAP pr result)
//   - stream: a never-revisited sequential stream (dead on arrival)
//   - random: a never-revisited uniform stream over a huge footprint
//
// The per-benchmark mixture weights and footprints are calibrated so that
// observable aggregates (dead-block fraction, LLC MPKI bands, which
// benchmarks gain/lose under Maya) land where the paper reports them; see
// DESIGN.md §4 for the substitution argument.
package trace

import (
	"fmt"

	"mayacache/internal/rng"
)

// Event is one instruction-stream step: Gap non-memory instructions
// followed by one memory access to Line.
type Event struct {
	// Gap is the number of non-memory instructions preceding the access.
	Gap int32
	// Line is the 64-byte line address.
	Line uint64
	// Write marks stores.
	Write bool
}

// Generator produces an infinite stream of events.
type Generator interface {
	// Next returns the next event.
	Next() Event
	// Name identifies the workload.
	Name() string
}

// Profile describes one benchmark's access mixture. Weights need not sum
// to one; they are normalized at construction.
type Profile struct {
	Name  string
	Suite string // "SPEC" or "GAP"

	// MemRatio is the fraction of instructions that access memory.
	MemRatio float64
	// WriteRatio is the fraction of memory accesses that are stores.
	WriteRatio float64

	// Component weights.
	WHot, WMed, WScan, WStream, WRand, WStride float64

	// Component footprints in 64B lines.
	HotLines, MedLines, ScanLines, RandLines int

	// Stride component: a cyclic walk over StrideCount lines spaced
	// StrideLines apart. Power-of-two strides collapse onto a handful of
	// sets under the baseline's modulo indexing (classic conflict
	// pathology) while spreading uniformly under randomized indexing —
	// the set-conflict behaviour real HPC address streams exhibit and
	// uniform synthetic streams lack.
	StrideLines, StrideCount int

	// MedZipf is the Zipf exponent for the medium set (<= 0: uniform).
	MedZipf float64
	// LineRepeat is how many consecutive accesses touch the same line
	// before advancing (word-level spatial locality the L1 absorbs).
	LineRepeat int
}

// Validate reports configuration errors.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile missing name")
	}
	if p.MemRatio <= 0 || p.MemRatio > 1 {
		return fmt.Errorf("trace: %s: MemRatio %v out of (0,1]", p.Name, p.MemRatio)
	}
	total := p.WHot + p.WMed + p.WScan + p.WStream + p.WRand
	if total <= 0 {
		return fmt.Errorf("trace: %s: all component weights are zero", p.Name)
	}
	if p.WHot > 0 && p.HotLines <= 0 {
		return fmt.Errorf("trace: %s: hot component without HotLines", p.Name)
	}
	if p.WMed > 0 && p.MedLines <= 0 {
		return fmt.Errorf("trace: %s: medium component without MedLines", p.Name)
	}
	if p.WScan > 0 && p.ScanLines <= 0 {
		return fmt.Errorf("trace: %s: scan component without ScanLines", p.Name)
	}
	if p.WRand > 0 && p.RandLines <= 0 {
		return fmt.Errorf("trace: %s: random component without RandLines", p.Name)
	}
	if p.WStride > 0 && (p.StrideLines <= 0 || p.StrideCount <= 0) {
		return fmt.Errorf("trace: %s: stride component without StrideLines/StrideCount", p.Name)
	}
	return nil
}

// Region bases keep components (and cores) in disjoint address ranges.
// Bits 40+ carry the core ID, bits 36-39 the component.
const (
	regionHot uint64 = iota + 1
	regionMed
	regionScan
	regionStream
	regionRand
	regionStride
)

// gen implements Generator for a Profile.
type gen struct {
	p        Profile
	coreBase uint64
	r        *rng.Rand
	zipf     *rng.Zipf // medium-set sampler (nil: uniform)
	// geom samples the gap distribution; it draws from r with exactly the
	// same stream as r.Geometric(1/(meanGap+1)) but without per-event
	// logarithms (nil when MemRatio is 1: every instruction is an access).
	geom *rng.GeometricSampler

	// cumulative component weights, normalized.
	cHot, cMed, cScan, cStream, cRand float64

	meanGap float64

	scanPos   uint64
	streamPos uint64
	stridePos uint64

	// line-repeat state: remaining repeats of curLine.
	curLine     uint64
	curWrite    bool
	repeatsLeft int
}

// NewGenerator builds a generator for profile p, bound to a core ID (which
// offsets its address space) and seeded deterministically.
func NewGenerator(p Profile, coreID int, seed uint64) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &gen{
		p:        p,
		coreBase: uint64(coreID+1) << 40,
		r:        rng.New(seed ^ rng.Mix64(uint64(coreID)+0x7ace)),
	}
	total := p.WHot + p.WMed + p.WScan + p.WStream + p.WRand + p.WStride
	g.cHot = p.WHot / total
	g.cMed = g.cHot + p.WMed/total
	g.cScan = g.cMed + p.WScan/total
	g.cStream = g.cScan + p.WStream/total
	g.cRand = g.cStream + p.WRand/total
	if p.WMed > 0 && p.MedZipf > 0 {
		g.zipf = rng.NewZipf(g.r, uint64(p.MedLines), p.MedZipf)
	}
	g.meanGap = (1 - p.MemRatio) / p.MemRatio
	if g.meanGap > 0 {
		g.geom = rng.NewGeometricSampler(g.r, 1/(g.meanGap+1))
	}
	return g, nil
}

// Name implements Generator.
func (g *gen) Name() string { return g.p.Name }

// Next implements Generator.
func (g *gen) Next() Event {
	gap := g.sampleGap()
	if g.repeatsLeft > 0 {
		g.repeatsLeft--
		return Event{Gap: gap, Line: g.curLine, Write: g.curWrite}
	}
	line := g.pickLine()
	write := g.r.Bool(g.p.WriteRatio)
	if g.p.LineRepeat > 1 {
		g.curLine, g.curWrite = line, write
		g.repeatsLeft = g.p.LineRepeat - 1
	}
	return Event{Gap: gap, Line: line, Write: write}
}

func (g *gen) sampleGap() int32 {
	if g.geom == nil {
		return 0
	}
	// Geometric gaps reproduce the bursty spacing of real code.
	return int32(g.geom.Next()) - 1
}

func (g *gen) pickLine() uint64 {
	u := g.r.Float64()
	switch {
	case u < g.cHot:
		return g.coreBase | regionHot<<36 | g.r.Uint64n(uint64(g.p.HotLines))
	case u < g.cMed:
		var l uint64
		if g.zipf != nil {
			l = g.zipf.Next()
		} else {
			l = g.r.Uint64n(uint64(g.p.MedLines))
		}
		return g.coreBase | regionMed<<36 | l
	case u < g.cScan:
		l := g.scanPos
		g.scanPos = (g.scanPos + 1) % uint64(g.p.ScanLines)
		return g.coreBase | regionScan<<36 | l
	case u < g.cStream:
		l := g.streamPos
		g.streamPos++ // never wraps within any realistic run
		return g.coreBase | regionStream<<36 | (l & (1<<36 - 1))
	case u < g.cRand:
		return g.coreBase | regionRand<<36 | g.r.Uint64n(uint64(g.p.RandLines))
	default:
		l := g.stridePos * uint64(g.p.StrideLines)
		g.stridePos = (g.stridePos + 1) % uint64(g.p.StrideCount)
		return g.coreBase | regionStride<<36 | (l & (1<<36 - 1))
	}
}
