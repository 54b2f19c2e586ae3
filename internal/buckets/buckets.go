// Package buckets implements the bucket-and-balls security model of
// Section IV-A: buckets are tag-store sets (one per skew), balls are valid
// tag entries, and ball throws are LLC fills. A bucket spill — a ball
// thrown at a pair of full buckets — corresponds to a set-associative
// eviction (SAE), the event the randomized designs must make vanishingly
// rare. The model drives Figures 6 and 7 and, together with the analytical
// model in internal/analytic, Tables I and IV.
//
// Three modes are provided: the Maya model (priority-0/priority-1 balls
// with the paper's three access events per iteration), the Mirage model
// (single ball class, throw plus global random eviction), and the
// non-decoupled threshold design sketched in Section VI.
package buckets

import (
	"fmt"

	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/rng"
)

// conservationPeriod is how often (in iterations) a mayacheck build
// re-verifies ball-count conservation from Step. The check is O(buckets).
const conservationPeriod = 4096

// Mode selects the modeled design.
type Mode uint8

const (
	// ModeMaya models the Maya tag store: each iteration performs a
	// demand tag miss, a tag hit on a priority-0 entry, and a writeback
	// tag miss (three accesses, two installs).
	ModeMaya Mode = iota
	// ModeMirage models Mirage: each iteration throws one ball with
	// load-aware skew selection and evicts one global random ball.
	ModeMirage
	// ModeThreshold models the Section VI non-decoupled strawman: a
	// conventional tag geometry kept below a valid-entry threshold with
	// load-aware insertion and global random eviction.
	ModeThreshold
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMaya:
		return "maya"
	case ModeMirage:
		return "mirage"
	case ModeThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes the model.
type Config struct {
	// Mode selects the design being modeled.
	Mode Mode
	// Skews is the number of skews (2 for Maya/Mirage).
	Skews int
	// BucketsPerSkew is the number of sets per skew (16K at full scale).
	BucketsPerSkew int
	// Capacity is the bucket capacity: ways per skew.
	Capacity int
	// AvgP0 is the steady-state priority-0 balls per bucket (Maya's
	// reuse ways; 0 for Mirage/Threshold).
	AvgP0 int
	// AvgP1 is the steady-state priority-1 balls per bucket (Maya's base
	// ways; total balls per bucket for Mirage/Threshold).
	AvgP1 int
	// Seed drives the randomness.
	Seed uint64
}

// ForRow is design row r's model with bucketsPerSkew buckets per skew
// (16384 at full scale): a bucket holds the row's ways per skew, and its
// steady state is the row's reuse ways of priority-0 balls and base ways
// of priority-1 balls. A row with reuse ways is modelled as Maya, any
// other as Mirage.
func ForRow(r cachemodel.Row, bucketsPerSkew int, seed uint64) Config {
	mode := ModeMirage
	if r.ReuseWays > 0 {
		mode = ModeMaya
	}
	return Config{
		Mode:           mode,
		Skews:          r.Skews,
		BucketsPerSkew: bucketsPerSkew,
		Capacity:       r.Ways(),
		AvgP0:          r.ReuseWays,
		AvgP1:          r.BaseWays,
		Seed:           seed,
	}
}

// MayaDefault is the Maya row's model, the paper's Table II configuration.
func MayaDefault(bucketsPerSkew int, seed uint64) Config {
	return ForRow(cachemodel.Maya, bucketsPerSkew, seed)
}

// ThresholdDefault models the Section VI non-decoupled design: a 16-way
// tag store kept at 75% valid occupancy (12 balls per 16-way set).
func ThresholdDefault(buckets int, seed uint64) Config {
	return Config{
		Mode:           ModeThreshold,
		Skews:          1,
		BucketsPerSkew: buckets,
		Capacity:       16,
		AvgP1:          12,
		Seed:           seed,
	}
}

// Model is a runnable bucket-and-balls simulation.
type Model struct {
	cfg      Config
	nb       int // total buckets
	total    []uint8
	p0       []uint8
	r        rng.Rand
	spills   uint64
	iters    uint64
	installs uint64

	// Draw bounds, precomputed once (each draws exactly as Intn of the
	// same n): a bucket within one skew, any bucket, the rejection test's
	// [0, Capacity+1), and tie[k] for a k-way tie.
	skewB, allB, capB rng.Bound
	tie               []rng.Bound

	// firstSpill is the iteration count at the first spill (valid when
	// spills > 0); the sharded runner merges these into the first-spill
	// distribution.
	firstSpill uint64

	// occupancy histogram accumulation (Fig 7).
	hist       []uint64
	histEvents uint64
}

// New builds and initializes the model at its steady-state population:
// every bucket starts with exactly AvgP0 priority-0 and AvgP1 priority-1
// balls (the attacker's best case, as in the paper).
func New(cfg Config) *Model {
	if cfg.Skews <= 0 || cfg.BucketsPerSkew <= 0 {
		panic("buckets: invalid geometry")
	}
	if cfg.AvgP0+cfg.AvgP1 > cfg.Capacity {
		panic("buckets: steady-state population exceeds capacity")
	}
	if cfg.Mode == ModeMaya && cfg.AvgP0 == 0 {
		panic("buckets: Maya mode requires priority-0 balls")
	}
	nb := cfg.Skews * cfg.BucketsPerSkew
	m := &Model{
		cfg:   cfg,
		nb:    nb,
		total: make([]uint8, nb),
		p0:    make([]uint8, nb),
		r:     *rng.New(cfg.Seed ^ 0xba11),
		skewB: rng.NewBound(uint64(cfg.BucketsPerSkew)),
		allB:  rng.NewBound(uint64(nb)),
		capB:  rng.NewBound(uint64(cfg.Capacity + 1)),
		tie:   make([]rng.Bound, cfg.Skews+1),
		hist:  make([]uint64, cfg.Capacity+2),
	}
	for k := 2; k <= cfg.Skews; k++ {
		m.tie[k] = rng.NewBound(uint64(k))
	}
	for b := 0; b < nb; b++ {
		m.total[b] = uint8(cfg.AvgP0 + cfg.AvgP1)
		m.p0[b] = uint8(cfg.AvgP0)
	}
	return m
}

// Step runs one iteration (three accesses for Maya, one throw otherwise).
func (m *Model) Step() { m.run(1, false) }

// Run executes n iterations.
func (m *Model) Run(n uint64) { m.run(n, false) }

// RunUntilSpill runs until the next spill or maxIters, returning the
// iterations executed and whether a spill occurred.
func (m *Model) RunUntilSpill(maxIters uint64) (uint64, bool) {
	spills := m.spills
	n := m.run(maxIters, true)
	return n, m.spills != spills
}

// run is the model's one iteration kernel, behind Step, Run and
// RunUntilSpill. It executes up to n iterations and returns how many ran,
// stopping after an iteration that spills when untilSpill is set.
//
// The generator lives in a local for the whole call and is written back
// before returning, and every draw goes through a bound precomputed in
// New, so a draw compiles to an inlined xoshiro step, a multiply and a
// compare (ci.sh checks that both calls inline). A Maya iteration makes
// about 47 of them.
func (m *Model) run(n uint64, untilSpill bool) uint64 {
	g := m.r
	total, p0 := m.total, m.p0
	per, skews, capacity := m.cfg.BucketsPerSkew, m.cfg.Skews, uint8(m.cfg.Capacity)
	skewB, allB, capB := m.skewB, m.allB, m.capB

	// draw returns a uniform value in the bound's range, taking exactly
	// the draws Intn would.
	draw := func(b rng.Bound) int {
		for {
			var x uint64
			x, g = g.Next()
			if v, ok := b.Map(x); ok {
				return int(v)
			}
		}
	}
	// randomP0, randomP1 and randomAny pick a bucket uniformly over its
	// priority-0, priority-1 or all balls, by rejection: a bucket holding
	// k of them is kept with probability k/(Capacity+1).
	randomP0 := func() int {
		for {
			b := draw(allB)
			if int(p0[b]) > draw(capB) {
				return b
			}
		}
	}
	randomP1 := func() int {
		for {
			b := draw(allB)
			if int(total[b]-p0[b]) > draw(capB) {
				return b
			}
		}
	}
	randomAny := func() int {
		for {
			b := draw(allB)
			if int(total[b]) > draw(capB) {
				return b
			}
		}
	}
	// throw picks one bucket per skew and returns the less loaded one
	// (ties broken uniformly), and whether it has room.
	throw := func() (int, bool) {
		m.installs++
		best := draw(skewB)
		tie := 1
		for s := 1; s < skews; s++ {
			b := s*per + draw(skewB)
			switch {
			case total[b] < total[best]:
				best, tie = b, 1
			case total[b] == total[best]:
				tie++
				if draw(m.tie[tie]) == 0 {
					best = b
				}
			}
		}
		return best, total[best] < capacity
	}
	// spill handles a throw into a full pair: a ball leaves the target
	// bucket again, standing in for the eviction the throw would have
	// caused. It is a priority-0 ball when the bucket holds any, per the
	// Maya design. When it is a priority-1 ball instead (vanishingly rare
	// at paper scale), a random priority-0 ball elsewhere is upgraded so
	// the class populations stay at their steady-state values, mirroring
	// the freed data entry being reassigned. Mirage and the threshold
	// design have no priority-0 balls.
	spill := func(b int) {
		m.spills++
		if m.spills == 1 {
			m.firstSpill = m.iters
		}
		total[b]--
		switch {
		case p0[b] > 0:
			p0[b]--
		case m.cfg.Mode == ModeMaya:
			p0[randomP0()]--
		}
	}

	spills := m.spills
	var i uint64
	for i < n {
		i++
		m.iters++
		switch m.cfg.Mode {
		case ModeMaya:
			// Demand tag miss (Fig 5a): a priority-0 ball arrives
			// load-aware, and global random tag eviction removes one. On
			// a spill the removed ball already restored the population,
			// as in the cache, where the priority-0 pool is back at its
			// cap.
			b, ok := throw()
			p0[b]++
			total[b]++
			if ok {
				e := randomP0()
				p0[e]--
				total[e]--
			} else {
				spill(b)
			}
			// Tag hit on a priority-0 ball (Fig 5b): it is upgraded, and
			// global random data eviction downgrades a priority-1 ball.
			// Bucket totals are unchanged.
			p0[randomP0()]--
			p0[randomP1()]++
			// Writeback tag miss (Fig 5c): a priority-1 ball arrives
			// load-aware, data eviction downgrades a random priority-1
			// ball in place, and tag eviction removes a random
			// priority-0 ball; on a spill the removed ball stands in for
			// the tag eviction.
			b, ok = throw()
			total[b]++
			p0[randomP1()]++
			if ok {
				e := randomP0()
				p0[e]--
				total[e]--
			} else {
				spill(b)
			}
		case ModeMirage, ModeThreshold:
			// One ball in (load-aware), one global random ball out. On a
			// spill the set-associative victim stands in for the global
			// eviction.
			b, ok := throw()
			total[b]++
			if ok {
				total[randomAny()]--
			} else {
				spill(b)
			}
		}
		if invariant.Enabled && invariant.Every(m.iters, conservationPeriod) {
			invariant.CheckErr(m.Conservation())
		}
		if untilSpill && m.spills != spills {
			break
		}
	}
	m.r = g
	return i
}

// SampleHistogram accumulates the current occupancy distribution into the
// Fig 7 histogram.
func (m *Model) SampleHistogram() {
	for _, t := range m.total {
		n := int(t)
		if n >= len(m.hist) {
			n = len(m.hist) - 1
		}
		m.hist[n]++
	}
	m.histEvents++
}

// Histogram returns Pr(n = N) for N in [0, Capacity+1].
func (m *Model) Histogram() []float64 {
	out := make([]float64, len(m.hist))
	total := m.histEvents * uint64(m.nb)
	if total == 0 {
		return out
	}
	for i, c := range m.hist {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// HistCounts returns a copy of the raw occupancy-histogram counts and the
// number of SampleHistogram calls behind them. The sharded runner merges
// shard histograms from these counts; Histogram() is the normalized view.
func (m *Model) HistCounts() ([]uint64, uint64) {
	out := make([]uint64, len(m.hist))
	copy(out, m.hist)
	return out, m.histEvents
}

// Spills returns the number of bucket spills (SAEs) so far.
func (m *Model) Spills() uint64 { return m.spills }

// FirstSpill returns the iteration count at which the first spill
// occurred, and whether any spill has occurred.
func (m *Model) FirstSpill() (uint64, bool) { return m.firstSpill, m.spills > 0 }

// Iterations returns the iterations executed.
func (m *Model) Iterations() uint64 { return m.iters }

// Installs returns the ball throws performed (2 per Maya iteration, 1 per
// Mirage/Threshold iteration).
func (m *Model) Installs() uint64 { return m.installs }

// Conservation verifies ball-count invariants, returning an error on the
// first violation (used by tests).
func (m *Model) Conservation() error {
	totalBalls, totalP0 := 0, 0
	for b := 0; b < m.nb; b++ {
		if m.p0[b] > m.total[b] {
			return fmt.Errorf("bucket %d: p0 %d exceeds total %d", b, m.p0[b], m.total[b])
		}
		if int(m.total[b]) > m.cfg.Capacity {
			return fmt.Errorf("bucket %d: total %d exceeds capacity %d", b, m.total[b], m.cfg.Capacity)
		}
		totalBalls += int(m.total[b])
		totalP0 += int(m.p0[b])
	}
	wantBalls := m.nb * (m.cfg.AvgP0 + m.cfg.AvgP1)
	if totalBalls != wantBalls {
		return fmt.Errorf("ball count %d, want %d", totalBalls, wantBalls)
	}
	if m.cfg.Mode == ModeMaya {
		wantP0 := m.nb * m.cfg.AvgP0
		if totalP0 != wantP0 {
			return fmt.Errorf("priority-0 count %d, want %d", totalP0, wantP0)
		}
	}
	return nil
}
