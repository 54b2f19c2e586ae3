package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/experiments"
	"mayacache/internal/trace"
)

// mixDesigns are the Fig 9/10 designs, in the order fig9-mix8 runs them;
// mixDesignKeys spells them in metric names.
var mixDesigns = []experiments.Design{experiments.DesignBaseline, experiments.DesignMirage, experiments.DesignMaya}

// mixCores is the core count of every Table VI mix.
const mixCores = 8

// mixM16 returns Table VI mix M16 (mcf×3, cactuBSSN, lbm, bfs×2, cc).
func mixM16() ([]string, error) {
	for _, m := range trace.HeteroMixes() {
		if m.Name == "M16" {
			return m.Benchmarks, nil
		}
	}
	return nil, fmt.Errorf("trace: Table VI mix M16 not found")
}

// newMixSystem assembles an M16 system around llc; wrap, when non-nil,
// wraps each core's generator.
func newMixSystem(llc cachemodel.LLC, seed uint64, wrap func(trace.Generator) trace.Generator) (*cachesim.System, error) {
	benches, err := mixM16()
	if err != nil {
		return nil, err
	}
	return newSystem(llc, benches, seed, wrap)
}

// newSystem assembles a system around llc the way experiments.runMixCtx
// does for a sweep cell: the paper's core, one generator per core seeded
// like the sweep, and two DRAM channels per eight cores.
func newSystem(llc cachemodel.LLC, benches []string, seed uint64, wrap func(trace.Generator) trace.Generator) (*cachesim.System, error) {
	gens := make([]trace.Generator, len(benches))
	for i, b := range benches {
		p, err := trace.Lookup(b)
		if err != nil {
			return nil, err
		}
		g, err := trace.NewGenerator(p, i, seed)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			g = wrap(g)
		}
		gens[i] = g
	}
	return cachesim.New(cachesim.Config{
		Cores: len(benches),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  mixDRAM(len(benches)),
		Seed:  seed,
	}, gens), nil
}

// mixDRAM is experiments' DRAM sizing: two channels per eight cores.
func mixDRAM(cores int) cachesim.DRAMConfig {
	cfg := cachesim.DefaultDRAMConfig()
	cfg.Channels = max((cores+3)/4, 1)
	return cfg
}

// mixLLC builds design d for the 8-core mix through the constructor the
// Fig 9/10 sweeps use.
func mixLLC(d experiments.Design, seed uint64) (cachemodel.LLC, error) {
	return experiments.NewLLCChecked(d, experiments.LLCOptions{Cores: mixCores, Seed: seed, FastHash: true})
}

func buildMix(d experiments.Design, seed uint64) (*cachesim.System, error) {
	llc, err := mixLLC(d, seed)
	if err != nil {
		return nil, err
	}
	return newMixSystem(llc, seed, nil)
}

// runSim runs sys serially for the mix budgets with the collector quiesced
// first, so a collection of the previous op's garbage never lands in the
// timed region.
func runSim(r *runner, sys *cachesim.System) (cachesim.Results, time.Duration, error) {
	runtime.GC()
	t := time.Now()
	res, err := cachesim.Run(r.ctx, sys, cachesim.RunSpec{Warmup: r.sc.Warmup, ROI: r.sc.ROI, Parallelism: 1})
	return res, time.Since(t), err
}

// digest is the SHA-256 of v's JSON encoding: for cachesim.Results these
// are the bytes the sweep checkpoints and the session journal store.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (r *runner) mixPin(d experiments.Design) string {
	if p := r.pinned(); p != nil {
		return p.Mix8[string(d)]
	}
	return ""
}

// mixInstr is the simulated instruction count of one run of the mix.
func (r *runner) mixInstr() float64 {
	return mixCores * float64(r.sc.Warmup+r.sc.ROI)
}

// runMix8 measures fig9-mix8: one op is the M16 cell, serially simulated
// once per design, and each design's run is a part of it; its set-up is
// building the three systems. The first op always completes; after it the
// window is checked before every part, so a run ends at most one design
// run after its window closes.
func runMix8(r *runner) error {
	if err := r.timeSetups(func() (func() error, error) {
		for _, d := range mixDesigns {
			if _, err := buildMix(d, r.seed); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}); err != nil {
		return err
	}
	r.startWindow()
	var op time.Duration
	for i := 0; i < len(mixDesigns) || r.more(i); i++ {
		d := mixDesigns[i%len(mixDesigns)]
		r.attempted++
		// The last system's garbage goes before this one is built, so the
		// two are never resident together.
		runtime.GC()
		sys, err := buildMix(d, r.seed)
		if err != nil {
			return err
		}
		res, el, err := runSim(r, sys)
		if err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		r.part(string(d), ms(el))
		r.yardstick()
		sum, err := digest(res)
		if err != nil {
			return err
		}
		r.agree(string(d), sum, r.mixPin(d), 1)
		op += el
		if i%len(mixDesigns) == len(mixDesigns)-1 {
			r.opMS = append(r.opMS, ms(op))
			op = 0
		}
	}
	r.note("sim_mips", float64(len(mixDesigns))*r.mixInstr()/(r.opP50()*1e3), "Minstr/s")
	return nil
}

// traceMix8 attributes fig9-mix8's time to its layers, one ledger pass
// after another until the window closes, and reports each metric's
// median over the passes.
func traceMix8(r *runner) (map[string]float64, error) {
	return r.passes(func() (map[string]float64, error) { return mixLedgerPass(r) })
}
