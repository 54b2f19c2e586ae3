package experiments

import (
	"context"
	"fmt"
	"strings"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/core"
	"mayacache/internal/harness"
	"mayacache/internal/metrics"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// A Sim is one simulation, the unit every sweep, the fleet and the
// session service run as one harness cell: an LLC, a workload mix and a
// scale. The LLC is a registry design built with FastHash, or a Table XI
// partition of the baseline.
type Sim struct {
	Design Design
	// ReuseWays overrides Maya's reuse ways per skew (0: the default).
	ReuseWays int
	// SetsPerCore overrides the per-core set count (0:
	// cachemodel.DefaultSetsPerCore).
	SetsPerCore int
	// Partition, when set, builds a Table XI partitioned baseline of that
	// kind ("set", "way" or "flex") instead of Design.
	Partition string
	// Benches holds one benchmark per core.
	Benches []string
	Scale   Scale
}

// homSim is design d on the homogeneous mix of bench over cores cores.
func homSim(d Design, bench string, cores int, sc Scale) Sim {
	return Sim{Design: d, Benches: homogeneous(bench, cores), Scale: sc}
}

// aloneSim is bench alone on a one-core baseline: the denominator of
// every weighted speedup that involves bench.
func aloneSim(bench string, sc Scale) Sim {
	return homSim(DesignBaseline, bench, 1, sc)
}

// defaultReuseWays is Maya's reuse ways per skew when none is given.
var defaultReuseWays = core.DefaultConfig(0).ReuseWays

// Key names the simulation by every input that determines its Results,
// with defaults resolved, so two sweeps that need the same simulation
// give it the same key and a checkpoint written at one configuration or
// scale is inapplicable at another. A homogeneous mix on a default
// registry design is GridCellKey's grid cell.
func (s Sim) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design=%s", s.Design)
	if s.Partition != "" {
		fmt.Fprintf(&b, "|part=%s", s.Partition)
	}
	if s.ReuseWays != 0 && s.ReuseWays != defaultReuseWays {
		fmt.Fprintf(&b, "|rw=%d", s.ReuseWays)
	}
	if s.SetsPerCore != 0 && s.SetsPerCore != cachemodel.DefaultSetsPerCore {
		fmt.Fprintf(&b, "|sets=%d", s.SetsPerCore)
	}
	fmt.Fprintf(&b, "|bench=%s|cores=%d|%s", mixField(s.Benches), len(s.Benches), scaleKey(s.Scale))
	return b.String()
}

// mixField renders a mix for a key: the benchmark for a homogeneous mix,
// else every core's benchmark in core order.
func mixField(benches []string) string {
	if len(benches) == 0 {
		return ""
	}
	for _, b := range benches[1:] {
		if b != benches[0] {
			return strings.Join(benches, ",")
		}
	}
	return benches[0]
}

// scaleKey renders the scale portion of a key.
func scaleKey(sc Scale) string {
	return fmt.Sprintf("w=%d|roi=%d|seed=%d", sc.WarmupInstr, sc.ROIInstr, sc.Seed)
}

// Run simulates s. Unknown designs and unbuildable configurations return
// errors wrapping cachemodel.ErrBadConfig before anything is simulated.
func (s Sim) Run(ctx context.Context) (cachesim.Results, error) {
	llc, err := s.llc()
	if err != nil {
		return cachesim.Results{}, err
	}
	return runMixCtx(ctx, s.Benches, llc, s.Scale)
}

// llc builds the simulation's last-level cache, sized to its core count.
func (s Sim) llc() (cachemodel.LLC, error) {
	if s.Partition != "" {
		return newPartitionLLC(s.Partition, len(s.Benches), s.Scale.Seed), nil
	}
	return cachemodel.Build(string(s.Design), cachemodel.BuildOptions{
		Cores:       len(s.Benches),
		SetsPerCore: s.SetsPerCore,
		Seed:        s.Scale.Seed,
		FastHash:    true,
		ReuseWays:   s.ReuseWays,
	})
}

// runMixCtx simulates one workload assignment under one LLC, honoring
// ctx cancellation and returning trace failures as errors. When the
// harness attached a snapshot.Cell to ctx the run goes through the
// checkpointing path of cachesim.Run: an interrupted run resumes
// mid-simulation, and deadline stops persist state before returning
// snapshot.ErrStopped.
func runMixCtx(ctx context.Context, benchNames []string, llc cachemodel.LLC, sc Scale) (cachesim.Results, error) {
	gens := make([]trace.Generator, len(benchNames))
	for i, b := range benchNames {
		p, err := trace.Lookup(b)
		if err != nil {
			return cachesim.Results{}, err
		}
		g, err := trace.NewGenerator(p, i, sc.Seed)
		if err != nil {
			return cachesim.Results{}, err
		}
		gens[i] = g
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(benchNames),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  dramFor(len(benchNames)),
		Seed:  sc.Seed,
	}, gens)
	return cachesim.Run(ctx, sys, cachesim.RunSpec{
		Warmup: sc.WarmupInstr,
		ROI:    sc.ROIInstr,
		Cell:   snapshot.CellFrom(ctx),
	})
}

// simExperiment is the harness experiment every simulation runs under:
// its checkpoint key is "sim|"+Sim.Key() whichever figure asked for it.
const simExperiment = "sim"

// done holds a sweep's completed simulations by key.
type done map[string]cachesim.Results

// withAlone returns sims followed by the alone run of every benchmark
// they use, which their weighted speedups read.
func withAlone(sims []Sim) []Sim {
	out := append([]Sim(nil), sims...)
	for _, s := range sims {
		for _, b := range s.Benches {
			out = append(out, aloneSim(b, s.Scale))
		}
	}
	return out
}

// runSims runs each distinct simulation of withAlone(sims) once on r and
// returns the completed ones by key. A simulation the runner's
// checkpoint already holds, because another sweep ran it, is restored
// instead of simulated. A failed or cancelled simulation has no entry;
// the error is the parent context's.
func runSims(ctx context.Context, r *harness.Runner, sims []Sim) (done, error) {
	var keys []string
	var todo []Sim
	seen := map[string]bool{}
	for _, s := range withAlone(sims) {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			todo = append(todo, s)
		}
	}
	res, ok, err := harness.RunCells(ctx, r, simExperiment, keys, func(ctx context.Context, i int) (cachesim.Results, error) {
		return todo[i].Run(ctx)
	})
	d := make(done, len(keys))
	for i, k := range keys {
		if ok[i] {
			d[k] = res[i]
		}
	}
	return d, err
}

// ws returns s's weighted speedup: the sum over its cores of the shared
// IPC over the core benchmark's alone IPC. ok is false when s or one of
// its alone runs did not complete.
func (d done) ws(s Sim) (float64, bool) {
	res, ok := d[s.Key()]
	if !ok {
		return 0, false
	}
	ipcs := make([]float64, len(res.Cores))
	alone := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		a, ok := d[aloneSim(s.Benches[i], s.Scale).Key()]
		if !ok {
			return 0, false
		}
		ipcs[i], alone[i] = c.IPC, a.Cores[0].IPC
	}
	w, err := metrics.WeightedSpeedup(ipcs, alone)
	return w, err == nil
}

// norm returns x's weighted speedup normalized to base's, the paper's
// performance metric.
func (d done) norm(x, base Sim) (float64, bool) {
	wx, okx := d.ws(x)
	wb, okb := d.ws(base)
	return wx / wb, okx && okb
}
