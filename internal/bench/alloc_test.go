package bench

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/trace"
)

// TestAccessPathZeroAlloc asserts the steady-state access path of every
// design performs zero heap allocations. The simulator's throughput is
// dominated by LLC.Access; a single allocation per access roughly doubles
// its cost and adds GC pressure across billion-access sweeps, so any
// regression here fails loudly. Warmup fills the structures and grows the
// reusable writeback/candidate buffers first, because those one-time
// growths are allowed.
func TestAccessPathZeroAlloc(t *testing.T) {
	for _, design := range Designs() {
		t.Run(design, func(t *testing.T) {
			llc, err := cachemodel.Build(design, cachemodel.BuildOptions{
				Cores: 1,
				Seed:  1,
			})
			if err != nil {
				t.Fatalf("Build(%q): %v", design, err)
			}
			const streamLen = 1 << 15
			stream, err := accessStream(streamLen, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*streamLen; i++ {
				llc.Access(stream[i%streamLen])
			}
			var i int
			avg := testing.AllocsPerRun(streamLen, func() {
				llc.Access(stream[i%streamLen])
				i++
			})
			if avg != 0 {
				t.Errorf("%s: %.4f allocs/access in steady state, want 0", design, avg)
			}
		})
	}
}

// macroMallocs runs the full 4-core macro system over the given ROI
// budget and returns the total heap allocation count the run performed,
// with the collector quiesced.
func macroMallocs(t *testing.T, design string, roi uint64) uint64 {
	t.Helper()
	llc, err := buildLLC(design, len(DefaultMix()), 1, true)
	if err != nil {
		t.Fatalf("build %s: %v", design, err)
	}
	gens := make([]trace.Generator, len(DefaultMix()))
	for i, name := range DefaultMix() {
		p, err := trace.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		gens[i], err = trace.NewGenerator(p, i, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(gens),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  cachesim.DefaultDRAMConfig(),
		Seed:  1,
	}, gens)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cachesim.Run(context.Background(), sys,
		cachesim.RunSpec{Warmup: 50_000, ROI: roi}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMacroDriveZeroAlloc extends the zero-alloc claim from the bare
// access path to the whole 4-core macro drive loop: growing the ROI
// budget 4x must not grow the run's allocation count, because every
// structure the steady-state loop touches — private caches, LLC, DRAM,
// the outstanding windows, and the step record's shared-op list — reuses
// its memory. The subtraction cancels the fixed per-run setup cost
// (system build); the slack absorbs amortized one-time growth (e.g. an
// outstanding-window slice doubling) that a longer run can still
// trigger.
func TestMacroDriveZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slack = 16
	for _, design := range Designs() {
		small := macroMallocs(t, design, 100_000)
		big := macroMallocs(t, design, 400_000)
		if big > small+slack {
			t.Errorf("%s: 4x ROI grew allocations %d -> %d (steady-state drive loop allocates)",
				design, small, big)
		}
	}
}
