package cachesim

import (
	"context"
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	maya "mayacache/internal/core"
	"mayacache/internal/trace"
)

// mustLLC unwraps a checked cache constructor for statically valid test
// geometries.
func mustLLC[T cachemodel.LLC](c T, err error) T {
	if err != nil {
		panic(err)
	}
	return c
}

// testLLC returns a small 2MB-ish baseline LLC for single-core tests.
func testLLC(seed uint64) cachemodel.LLC {
	return mustLLC(baseline.NewChecked(baseline.Config{Sets: 2048, Ways: 16, Replacement: baseline.SRRIP, Seed: seed}))
}

// mustRun runs sys from the start for the given per-core budgets,
// failing the test on error.
func mustRun(t testing.TB, sys *System, warmup, roi uint64) Results {
	t.Helper()
	res, err := Run(context.Background(), sys, RunSpec{Warmup: warmup, ROI: roi})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func singleCoreSystem(t *testing.T, bench string, llc cachemodel.LLC) *System {
	t.Helper()
	g, err := trace.NewGenerator(trace.MustLookup(bench), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Cores: 1,
		Core:  DefaultCoreParams(),
		LLC:   llc,
		DRAM:  DefaultDRAMConfig(),
		Seed:  1,
	}, []trace.Generator{g})
}

func TestRunProducesPlausibleIPC(t *testing.T) {
	s := singleCoreSystem(t, "mcf", testLLC(1))
	res := mustRun(t, s, 50000, 200000)
	if len(res.Cores) != 1 {
		t.Fatalf("%d core results", len(res.Cores))
	}
	c := res.Cores[0]
	if c.Instructions < 200000 {
		t.Fatalf("retired %d < target", c.Instructions)
	}
	if c.IPC <= 0 || c.IPC > 6 {
		t.Fatalf("IPC %v out of (0, issue width]", c.IPC)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() Results {
		s := singleCoreSystem(t, "xz", testLLC(7))
		return mustRun(t, s, 20000, 50000)
	}
	a, b := mk(), mk()
	if a.Cores[0].Cycles != b.Cores[0].Cycles {
		t.Fatalf("cycles differ across identical runs: %d vs %d", a.Cores[0].Cycles, b.Cores[0].Cycles)
	}
	if a.LLCStats != b.LLCStats {
		t.Fatal("LLC stats differ across identical runs")
	}
}

func TestHotWorkloadFasterThanStreaming(t *testing.T) {
	// leela (cache-friendly) must achieve much higher IPC than lbm
	// (streaming).
	sHot := singleCoreSystem(t, "leela", testLLC(2))
	sStream := singleCoreSystem(t, "lbm", testLLC(3))
	rHot := mustRun(t, sHot, 2000000, 500000)
	rStream := mustRun(t, sStream, 2000000, 500000)
	if rHot.Cores[0].IPC <= rStream.Cores[0].IPC {
		t.Fatalf("leela IPC %.3f not above lbm IPC %.3f",
			rHot.Cores[0].IPC, rStream.Cores[0].IPC)
	}
	if rHot.MPKI() >= rStream.MPKI() {
		t.Fatalf("leela MPKI %.2f not below lbm MPKI %.2f", rHot.MPKI(), rStream.MPKI())
	}
}

func TestLLCFittingHasLowMPKI(t *testing.T) {
	// The 24K-line footprint needs a long warmup to load before the ROI
	// measures steady-state behaviour (compulsory misses excluded).
	s := singleCoreSystem(t, "leela", testLLC(4))
	res := mustRun(t, s, 3000000, 1000000)
	if mpki := res.MPKI(); mpki > 2.0 {
		t.Fatalf("leela LLC MPKI %.2f; expected an LLC-fitting workload", mpki)
	}
}

func TestMemIntensiveHasHighMPKI(t *testing.T) {
	s := singleCoreSystem(t, "mcf", testLLC(5))
	res := mustRun(t, s, 50000, 200000)
	if mpki := res.MPKI(); mpki < 2.0 {
		t.Fatalf("mcf LLC MPKI %.2f; expected memory-intensive (>2)", mpki)
	}
}

func TestMultiCoreSharedLLCContention(t *testing.T) {
	// The same benchmark must lose IPC when seven contending cores share
	// the LLC versus running alone on the same-size cache.
	mkSystem := func(cores int) *System {
		gens := make([]trace.Generator, cores)
		for i := range gens {
			gens[i] = trace.MustGenerator(trace.MustLookup("mcf"), i, 1)
		}
		return New(Config{
			Cores: cores,
			Core:  DefaultCoreParams(),
			LLC:   mustLLC(baseline.NewChecked(baseline.Config{Sets: 4096, Ways: 16, Replacement: baseline.SRRIP, Seed: 1})),
			DRAM:  DefaultDRAMConfig(),
			Seed:  1,
		}, gens)
	}
	alone := mustRun(t, mkSystem(1), 20000, 100000)
	shared := mustRun(t, mkSystem(8), 20000, 100000)
	if shared.Cores[0].IPC >= alone.Cores[0].IPC {
		t.Fatalf("no contention effect: alone %.3f, shared %.3f",
			alone.Cores[0].IPC, shared.Cores[0].IPC)
	}
}

func TestMayaLLCIntegration(t *testing.T) {
	// End-to-end: the Maya design runs under the simulator and reports
	// tag-only hits (its signature behaviour).
	cfg := maya.Config{
		SetsPerSkew: 2048, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6,
		Seed: 1, Hasher: cachemodel.NewXorHasher(2, 11, 1),
	}
	s := singleCoreSystem(t, "mcf", mustLLC(maya.NewChecked(cfg)))
	res := mustRun(t, s, 50000, 200000)
	if res.LLCStats.TagOnlyHits == 0 {
		t.Fatal("Maya never saw a tag-only hit under mcf")
	}
	if res.Cores[0].IPC <= 0 {
		t.Fatal("non-positive IPC")
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	// The stream must wrap the 32K-line LLC before dirty evictions reach
	// memory, hence the longer run.
	s := singleCoreSystem(t, "lbm", testLLC(6))
	res := mustRun(t, s, 200000, 1000000)
	if res.DRAMWrites == 0 {
		t.Fatal("streaming store workload produced no DRAM writes")
	}
}

func TestDRAMRowBufferLocality(t *testing.T) {
	// Sequential streams should see high row-hit rates.
	s := singleCoreSystem(t, "lbm", testLLC(7))
	res := mustRun(t, s, 20000, 200000)
	if res.DRAMRowHits == 0 {
		t.Fatal("no row hits for a sequential stream")
	}
	hitRate := float64(res.DRAMRowHits) / float64(res.DRAMRowHits+res.DRAMRowMisses)
	if hitRate < 0.3 {
		t.Fatalf("row hit rate %.2f too low for streaming", hitRate)
	}
}

func TestROIStatsExcludeWarmup(t *testing.T) {
	s := singleCoreSystem(t, "xz", testLLC(8))
	res := mustRun(t, s, 100000, 100000)
	// Accesses counted must be consistent with the ROI only: misses
	// cannot exceed accesses, instructions must equal the ROI target
	// (within one event's gap).
	if res.LLCStats.Misses > res.LLCStats.Accesses {
		t.Fatal("misses exceed accesses")
	}
	if res.Cores[0].Instructions < 100000 || res.Cores[0].Instructions > 102000 {
		t.Fatalf("ROI instructions %d not ~100000", res.Cores[0].Instructions)
	}
}

func TestDRAMModel(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// First access to a row: miss; immediate second access: hit and
	// faster.
	lat1 := d.Read(0, 0)
	lat2 := d.Read(lat1+100, 1) // same row (lines 0 and 1)
	if lat2 >= lat1 {
		t.Fatalf("row hit latency %d not below row miss %d", lat2, lat1)
	}
	// A distant line maps to another row: closed-row penalty returns.
	lat3 := d.Read(lat1+1000, 1<<20)
	if lat3 <= lat2 {
		t.Fatalf("row miss latency %d not above row hit %d", lat3, lat2)
	}
}

func TestDRAMBankContention(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// Two simultaneous requests to the same bank serialize.
	l1 := d.Read(0, 0)
	l2 := d.Read(0, 0) // same line, same bank, same instant
	if l2 <= l1 {
		t.Fatalf("second same-bank request (%d) not delayed past first (%d)", l2, l1)
	}
}

func BenchmarkSystemStep(b *testing.B) {
	g := trace.MustGenerator(trace.MustLookup("mcf"), 0, 1)
	s := New(Config{
		Cores: 1, Core: DefaultCoreParams(),
		LLC:  mustLLC(baseline.NewChecked(baseline.Config{Sets: 2048, Ways: 16, Replacement: baseline.SRRIP, Seed: 1})),
		DRAM: DefaultDRAMConfig(), Seed: 1,
	}, []trace.Generator{g})
	c := s.cores[0]
	var src recordSource
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap, kind, ops, _ := src.next(c)
		s.applyStep(c, gap, kind, ops)
	}
}
