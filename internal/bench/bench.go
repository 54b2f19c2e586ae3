// Package bench is the simulator's continuous benchmark suite: pinned,
// seed-deterministic workloads that measure the cost of simulating each
// LLC design, not the simulated designs themselves.
//
// Two tiers:
//
//   - Micro: a single-threaded stream of LLC accesses against one design,
//     reporting ns/access, allocs/access, and bytes/access. The access
//     path of every design is required to be allocation-free in steady
//     state (see alloc_test.go), so nonzero allocs here is a regression.
//   - Macro: the full multi-core system simulation (per-core L1D/L2,
//     shared LLC, DRAM) over a fixed 4-core SPEC/GAP mix, reporting
//     end-to-end trace events per second.
//
// Every workload is pinned: profiles, seeds, core counts, and instruction
// budgets are fixed constants, so numbers are comparable across commits on
// the same machine. cmd/mayabench runs the suite and emits BENCH.json.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/trace"

	// The design families link their builders from init; mayabench
	// builds rows of all four by name.
	_ "mayacache/internal/baseline"
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

// Designs are the registry names benchmarked by Run, in report order.
func Designs() []string {
	return []string{"Maya", "Mirage", "Baseline", "CEASER-S"}
}

// DefaultMix is the pinned macro workload: one SPEC/GAP profile per core.
func DefaultMix() []string {
	return []string{"mcf", "lbm", "cc", "xz"}
}

// Options selects the suite's size. The zero value is the full suite.
type Options struct {
	// Quick shrinks every instruction budget ~5x for CI.
	Quick bool
	// Seed drives all randomness; 0 means the pinned default (1).
	Seed uint64
	// MicroOnly runs just the micro tier (used by `make bench-profile`,
	// where the profile should capture the access path alone).
	MicroOnly bool
}

// MicroResult is one design's access-path measurement.
type MicroResult struct {
	Design   string `json:"design"`
	Accesses uint64 `json:"accesses"`
	// RealHash distinguishes the two micro tiers. False is the historical
	// overhead tier: the XorHasher stands in for PRINCE so the row
	// measures simulator bookkeeping, comparable across all commits. True
	// is the real tier: the design's production hasher (PRINCE for the
	// randomized designs) with the index memo on, measuring what a
	// paper-faithful simulation actually costs per access.
	RealHash        bool    `json:"real_hash,omitempty"`
	NsPerAccess     float64 `json:"ns_per_access"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
	BytesPerAccess  float64 `json:"bytes_per_access"`
	// Memo telemetry for the timed region: index-memo hits/misses and the
	// hit fraction. Zero across the board when the design has no memo
	// (Baseline) or the row is overhead-tier (the memo fronts only the
	// PRINCE randomizer; memoizing a three-instruction hash is a measured
	// loss).
	MemoHits    uint64  `json:"memo_hits,omitempty"`
	MemoMisses  uint64  `json:"memo_misses,omitempty"`
	MemoHitRate float64 `json:"memo_hit_rate,omitempty"`
}

// MacroResult is one design's full-system throughput measurement.
type MacroResult struct {
	Design       string   `json:"design"`
	Mix          []string `json:"mix"`
	WarmupInstrs uint64   `json:"warmup_instrs"`
	ROIInstrs    uint64   `json:"roi_instrs"`
	// Parallelism is always 1: every simulation runs on one goroutine.
	// It stays in the report because CompareMacro matches rows on
	// (design, parallelism), which picks out the serial rows of older
	// reports that also hold parallel ones.
	Parallelism  int     `json:"parallelism"`
	Events       uint64  `json:"events"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	IPCSum       float64 `json:"ipc_sum"`
}

// Report is the machine-readable output of a suite run (BENCH.json).
type Report struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Quick     bool          `json:"quick"`
	Seed      uint64        `json:"seed"`
	Micro     []MicroResult `json:"micro"`
	Macro     []MacroResult `json:"macro"`
}

// buildLLC constructs a design through the registry at the bench's pinned
// geometry. FastHash keeps micro/macro numbers about simulator overhead
// rather than PRINCE throughput; the golden fixtures use the real hasher.
func buildLLC(design string, cores int, seed uint64, fastHash bool) (cachemodel.LLC, error) {
	return cachemodel.Build(design, cachemodel.BuildOptions{Cores: cores, Seed: seed, FastHash: fastHash})
}

// accessStream precomputes a deterministic single-core access sequence
// from the pinned "mcf" profile (pointer-chasing heavy: a hit/miss mixture
// with writebacks).
func accessStream(n int, seed uint64) ([]cachemodel.Access, error) {
	p, err := trace.Lookup("mcf")
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(p, 0, seed)
	if err != nil {
		return nil, err
	}
	accs := make([]cachemodel.Access, n)
	for i := range accs {
		ev := g.Next()
		typ := cachemodel.Read
		if ev.Write {
			typ = cachemodel.Writeback
		}
		accs[i] = cachemodel.Access{Line: ev.Line, Type: typ}
	}
	return accs, nil
}

// RunMicro measures one design's access path over `accesses` operations
// after a full warmup pass, reporting wall time and allocation deltas.
func RunMicro(design string, accesses uint64, seed uint64, realHash bool) (MicroResult, error) {
	llc, err := buildLLC(design, 1, seed, !realHash)
	if err != nil {
		return MicroResult{}, err
	}
	return runMicro(llc, design, accesses, seed, realHash)
}

// runMicro is RunMicro on an already built single-core llc.
func runMicro(llc cachemodel.LLC, design string, accesses uint64, seed uint64, realHash bool) (MicroResult, error) {
	const streamLen = 1 << 16
	stream, err := accessStream(streamLen, seed)
	if err != nil {
		return MicroResult{}, err
	}
	// Warmup: fill the structures and grow any reusable buffers so the
	// timed region is steady-state.
	for i := 0; i < 2*streamLen; i++ {
		llc.Access(stream[i%streamLen])
	}
	// Reset counters so memo telemetry describes the timed region only
	// (the warmup pass is where the memo goes from cold to warm).
	llc.ResetStats()

	// Quiesce the collector and hold it off during the timed region: the
	// access path allocates nothing (alloc_test.go proves it), so the only
	// thing background GC can contribute to the alloc columns is noise —
	// historical reports showed phantom residuals like 0.000001
	// allocs/access from exactly this.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := uint64(0); i < accesses; i++ {
		llc.Access(stream[i%streamLen])
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	stats := llc.StatsSnapshot()
	return MicroResult{
		Design:          design,
		Accesses:        accesses,
		RealHash:        realHash,
		NsPerAccess:     float64(elapsed.Nanoseconds()) / float64(accesses),
		AllocsPerAccess: float64(after.Mallocs-before.Mallocs) / float64(accesses),
		BytesPerAccess:  float64(after.TotalAlloc-before.TotalAlloc) / float64(accesses),
		MemoHits:        stats.MemoHits,
		MemoMisses:      stats.MemoMisses,
		MemoHitRate:     stats.MemoHitRate(),
	}, nil
}

// countingGen wraps a generator and counts the events it produced, which
// is the macro throughput denominator.
type countingGen struct {
	g trace.Generator
	n uint64
}

func (c *countingGen) Next() trace.Event { c.n++; return c.g.Next() }
func (c *countingGen) Name() string      { return c.g.Name() }

// bestMacro runs a macro measurement macroReps times and keeps the
// fastest row. Wall-clock timing on a loaded machine only ever loses
// time to interference, so max-of-N is the low-noise estimator the
// CompareMacro regression gate needs to hold a tight tolerance.
const macroReps = 3

func bestMacro(design string, warmup, roi, seed uint64) (MacroResult, error) {
	var best MacroResult
	for i := 0; i < macroReps; i++ {
		m, err := RunMacro(design, DefaultMix(), warmup, roi, seed)
		if err != nil {
			return MacroResult{}, err
		}
		if i == 0 || m.EventsPerSec > best.EventsPerSec {
			best = m
		}
	}
	return best, nil
}

// RunMacro measures one design's full-system simulation throughput over
// the given mix.
func RunMacro(design string, mix []string, warmup, roi, seed uint64) (MacroResult, error) {
	llc, err := buildLLC(design, len(mix), seed, true)
	if err != nil {
		return MacroResult{}, err
	}
	gens := make([]trace.Generator, len(mix))
	counters := make([]*countingGen, len(mix))
	for i, name := range mix {
		p, err := trace.Lookup(name)
		if err != nil {
			return MacroResult{}, err
		}
		g, err := trace.NewGenerator(p, i, seed)
		if err != nil {
			return MacroResult{}, err
		}
		counters[i] = &countingGen{g: g}
		gens[i] = counters[i]
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(mix),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  cachesim.DefaultDRAMConfig(),
		Seed:  seed,
	}, gens)
	start := time.Now()
	res, err := cachesim.Run(context.Background(), sys, cachesim.RunSpec{Warmup: warmup, ROI: roi})
	if err != nil {
		return MacroResult{}, err
	}
	elapsed := time.Since(start)
	var events uint64
	for _, c := range counters {
		events += c.n
	}
	return MacroResult{
		Design:       design,
		Mix:          mix,
		WarmupInstrs: warmup,
		ROIInstrs:    roi,
		Parallelism:  1,
		Events:       events,
		Seconds:      elapsed.Seconds(),
		EventsPerSec: float64(events) / elapsed.Seconds(),
		IPCSum:       res.IPCSum(),
	}, nil
}

// Run executes the full suite and assembles the report.
func Run(opts Options) (*Report, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	microAccesses := uint64(2_000_000)
	warmup, roi := uint64(1_000_000), uint64(1_000_000)
	if opts.Quick {
		microAccesses = 400_000
		warmup, roi = 100_000, 200_000
	}
	r := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		Quick:     opts.Quick,
		Seed:      seed,
	}
	// Overhead tier: XorHasher, so no memo — bookkeeping cost, comparable
	// with every historical baseline row.
	for _, d := range Designs() {
		m, err := RunMicro(d, microAccesses, seed, false)
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", d, err)
		}
		r.Micro = append(r.Micro, m)
	}
	// Real tier: the production PRINCE hasher with the index memo, for the
	// randomized designs the memo exists for. (Baseline is physically
	// indexed — its real row would duplicate the overhead row.)
	for _, d := range Designs() {
		if d == "Baseline" {
			continue
		}
		m, err := RunMicro(d, microAccesses, seed, true)
		if err != nil {
			return nil, fmt.Errorf("micro %s (real hash): %w", d, err)
		}
		r.Micro = append(r.Micro, m)
	}
	if opts.MicroOnly {
		return r, nil
	}
	// One macro row per design, on the overhead hasher (fast, memo-free):
	// the rows gauge the whole-system drive loop and must stay comparable
	// with historical baselines.
	for _, d := range Designs() {
		m, err := bestMacro(d, warmup, roi, seed)
		if err != nil {
			return nil, fmt.Errorf("macro %s: %w", d, err)
		}
		r.Macro = append(r.Macro, m)
	}
	return r, nil
}

// WriteJSON writes the report as indented JSON to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ReadJSON loads a report previously written by WriteJSON.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// CompareMacro gates continuous-benchmark regressions: it returns an
// error naming every macro row of r whose events/sec fell more than the
// fractional tolerance below the matching row (same design and
// parallelism) of base, after dividing out the run-wide machine-speed
// factor (the geometric mean of the per-row current/baseline ratios over
// all matched rows). Shared CI machines swing absolute wall-clock by tens
// of percent run to run, but that noise moves every row together; the
// normalization cancels it, so the gate holds a tight per-design
// tolerance and catches one design's simulation path getting slower
// relative to the others. The deliberate blind spot: a slowdown that hits
// every design equally looks like machine noise and passes.
//
// Rows with no baseline counterpart — a new design, or a baseline's
// parallel rows from before the parallel mode was deleted — are skipped,
// so the gate never breaks on legitimate suite growth. Skipping never
// empties the gate: when r has gate-eligible rows and none of them
// matches a baseline row (an empty or renamed baseline), the tier fails.
func CompareMacro(r, base *Report, tol float64) error {
	type key struct {
		design string
		par    int
	}
	ref := make(map[key]float64, len(base.Macro))
	for _, m := range base.Macro {
		ref[key{m.Design, m.Parallelism}] = m.EventsPerSec
	}
	type pair struct {
		m     MacroResult
		ratio float64
	}
	var pairs []pair
	logSum, eligible := 0.0, 0
	for _, m := range r.Macro {
		if m.EventsPerSec <= 0 {
			continue
		}
		eligible++
		b, ok := ref[key{m.Design, m.Parallelism}]
		if !ok || b <= 0 {
			continue
		}
		rat := m.EventsPerSec / b
		pairs = append(pairs, pair{m, rat})
		logSum += math.Log(rat)
	}
	if len(pairs) == 0 {
		return unmatched("macro", eligible)
	}
	scale := math.Exp(logSum / float64(len(pairs)))
	var bad []string
	for _, p := range pairs {
		rel := p.ratio / scale
		if rel < 1-tol {
			bad = append(bad, fmt.Sprintf("%s: %.0f events/sec vs %.0f expected at this run's speed (%.1f%% below the run-wide trend)",
				p.m.Design, p.m.EventsPerSec, ref[key{p.m.Design, p.m.Parallelism}]*scale, (1-rel)*100))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("macro throughput regressed beyond %.0f%% relative to the suite (machine-speed factor %.2fx):\n  %s",
			tol*100, scale, strings.Join(bad, "\n  "))
	}
	return nil
}

// CompareMicro is CompareMacro's analogue for the micro tier: it flags
// every design whose ns/access rose more than the fractional tolerance
// above its baseline row, after dividing out the run-wide machine-speed
// factor (geometric mean of per-row baseline/current ns ratios, so a
// bigger ratio means faster). Rows are matched on (design, real_hash);
// rows missing from either report — e.g. real-tier rows against a
// baseline predating the tier — are skipped, but as in CompareMacro a
// tier none of whose rows matches fails.
func CompareMicro(r, base *Report, tol float64) error {
	type key struct {
		design   string
		realHash bool
	}
	ref := make(map[key]float64, len(base.Micro))
	for _, m := range base.Micro {
		ref[key{m.Design, m.RealHash}] = m.NsPerAccess
	}
	type pair struct {
		m     MicroResult
		ratio float64 // base ns / current ns: >1 means this run is faster
	}
	var pairs []pair
	logSum, eligible := 0.0, 0
	for _, m := range r.Micro {
		if m.NsPerAccess <= 0 {
			continue
		}
		eligible++
		b, ok := ref[key{m.Design, m.RealHash}]
		if !ok || b <= 0 {
			continue
		}
		rat := b / m.NsPerAccess
		pairs = append(pairs, pair{m, rat})
		logSum += math.Log(rat)
	}
	if len(pairs) == 0 {
		return unmatched("micro", eligible)
	}
	scale := math.Exp(logSum / float64(len(pairs)))
	var bad []string
	for _, p := range pairs {
		rel := p.ratio / scale
		if rel < 1-tol {
			bad = append(bad, fmt.Sprintf("%s (real_hash=%v): %.1f ns/access vs %.1f expected at this run's speed (%.1f%% above the run-wide trend)",
				p.m.Design, p.m.RealHash, p.m.NsPerAccess, ref[key{p.m.Design, p.m.RealHash}]/scale, (1-rel)*100))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("micro access path regressed beyond %.0f%% relative to the suite (machine-speed factor %.2fx):\n  %s",
			tol*100, scale, strings.Join(bad, "\n  "))
	}
	return nil
}

// unmatched is the verdict on a tier none of whose rows found a baseline
// counterpart: vacuous success only when the tier had no gate-eligible
// row to compare.
func unmatched(tier string, eligible int) error {
	if eligible == 0 {
		return nil
	}
	return fmt.Errorf("%s tier: none of this run's %d gate-eligible rows matches a baseline row", tier, eligible)
}
