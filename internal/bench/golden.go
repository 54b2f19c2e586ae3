package bench

import (
	"context"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/trace"
)

// The golden workload: a 2-core mcf+xz mix with the real PRINCE hasher,
// seed 42, 20k warmup and 50k ROI instructions per core.
const goldenSeed = 42

var goldenMix = []string{"mcf", "xz"}

// GoldenRun executes the pinned golden workload for one design built
// through the registry. The returned Results, marshaled to JSON, are the
// design's golden fixture (testdata/golden_*.json): hot-path
// optimizations must keep them byte-identical, because any drift means
// the optimization changed observable behavior — a different victim, RNG
// draw order, or float arithmetic — not just its speed.
func GoldenRun(design string) (cachesim.Results, error) {
	llc, err := cachemodel.Build(design, cachemodel.BuildOptions{Cores: len(goldenMix), Seed: goldenSeed})
	if err != nil {
		return cachesim.Results{}, err
	}
	return goldenRunLLC(llc)
}

// goldenRunLLC runs the golden workload on llc.
func goldenRunLLC(llc cachemodel.LLC) (cachesim.Results, error) {
	const (
		warmup = 20_000
		roi    = 50_000
	)
	gens := make([]trace.Generator, len(goldenMix))
	for i, name := range goldenMix {
		p, err := trace.Lookup(name)
		if err != nil {
			return cachesim.Results{}, err
		}
		gens[i], err = trace.NewGenerator(p, i, goldenSeed)
		if err != nil {
			return cachesim.Results{}, err
		}
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(goldenMix),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  cachesim.DefaultDRAMConfig(),
		Seed:  goldenSeed,
	}, gens)
	return cachesim.Run(context.Background(), sys, cachesim.RunSpec{Warmup: warmup, ROI: roi})
}
