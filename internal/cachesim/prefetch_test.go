package cachesim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/trace"
)

func TestPrefetcherDetectsUnitStride(t *testing.T) {
	p := newPrefetcher(PrefetchConfig{Degree: 2})
	var got []uint64
	for l := uint64(0); l < 10; l++ {
		got = p.observe(l)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("unit-stride prediction = %v, want [10 11]", got)
	}
}

func TestPrefetcherDetectsLargerStride(t *testing.T) {
	p := newPrefetcher(PrefetchConfig{Degree: 1})
	var got []uint64
	for i := uint64(0); i < 8; i++ {
		got = p.observe(i * 3)
	}
	if len(got) != 1 || got[0] != 7*3+3 {
		t.Fatalf("stride-3 prediction = %v, want [24]", got)
	}
}

func TestPrefetcherIgnoresRandomAccess(t *testing.T) {
	p := newPrefetcher(PrefetchConfig{Degree: 2})
	addrs := []uint64{5, 900, 17, 4411, 2, 777, 39, 1234}
	issued := 0
	for _, a := range addrs {
		issued += len(p.observe(a))
	}
	if issued != 0 {
		t.Fatalf("issued %d prefetches on a random stream", issued)
	}
}

func TestPrefetcherStrideChangeResetsConfidence(t *testing.T) {
	p := newPrefetcher(PrefetchConfig{Degree: 1})
	for l := uint64(0); l < 6; l++ {
		p.observe(l)
	}
	// Break the stride: the next observations must not predict until
	// confidence rebuilds.
	if got := p.observe(20); len(got) != 0 {
		t.Fatalf("predicted %v right after a stride break", got)
	}
	if got := p.observe(40); len(got) != 0 {
		t.Fatalf("predicted %v with one repeat of the new stride", got)
	}
}

func TestDisabledPrefetcherIsNil(t *testing.T) {
	if p := newPrefetcher(PrefetchConfig{}); p != nil {
		t.Fatal("degree-0 prefetcher not nil")
	}
	var p *prefetcher
	if p.Issued() != 0 {
		t.Fatal("nil prefetcher reports issues")
	}
}

func TestPrefetchImprovesStreaming(t *testing.T) {
	// lbm is a sequential stream: prefetching must raise its IPC.
	run := func(degree int) float64 {
		g := trace.MustGenerator(trace.MustLookup("lbm"), 0, 1)
		params := DefaultCoreParams()
		params.Prefetch = PrefetchConfig{Degree: degree}
		sys := New(Config{
			Cores: 1,
			Core:  params,
			LLC:   mustLLC(baseline.NewChecked(baseline.Config{Sets: 2048, Ways: 16, Replacement: baseline.SRRIP, Seed: 1})),
			DRAM:  DefaultDRAMConfig(),
			Seed:  1,
		}, []trace.Generator{g})
		return mustRun(t, sys, 200_000, 400_000).Cores[0].IPC
	}
	off, on := run(0), run(4)
	if on <= off {
		t.Fatalf("prefetching did not help streaming: IPC %0.3f -> %0.3f", off, on)
	}
}

// prefetchSystem builds a two-core lbm + cc system with degree-2 stride
// prefetchers. snapSystem's mcf + xz mix issues no prefetch at the snap
// budgets; lbm's streams and cc's strided sweeps do.
func prefetchSystem(llc cachemodel.LLC) *System {
	params := DefaultCoreParams()
	params.Prefetch = PrefetchConfig{Degree: 2}
	gens := []trace.Generator{
		trace.MustGenerator(trace.MustLookup("lbm"), 0, 5),
		trace.MustGenerator(trace.MustLookup("cc"), 1, 5),
	}
	return New(Config{Cores: 2, Core: params, LLC: llc, DRAM: DefaultDRAMConfig(), Seed: 5}, gens)
}

// TestPrefetchRunFixtures pins a prefetching run byte for byte: for every
// LLC design, serially and in the parallel mode, the Results JSON must
// match the committed testdata/prefetch_<design>.json. The prefetch walk
// (its L1D/L2 fills, the LLC reads it issues and the DRAM bandwidth they
// consume) is otherwise unchecked: no golden or compat run prefetches.
// The fixtures are frozen like the compat ones and regenerate only with
// -update-compat.
func TestPrefetchRunFixtures(t *testing.T) {
	for _, d := range snapDesigns {
		t.Run(d.name, func(t *testing.T) {
			path := filepath.Join("testdata", "prefetch_"+d.name+".json")
			for _, par := range []int{1, 4} {
				sys := prefetchSystem(d.mk())
				res, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				var issued uint64
				for _, c := range sys.cores {
					issued += c.f.pf.Issued()
				}
				if issued < 1000 {
					t.Fatalf("parallelism %d issued %d prefetches, want at least 1000", par, issued)
				}
				got := append(resultsJSON(t, res), '\n')
				if *updateCompat {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (generate with -update-compat): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("parallelism %d results diverge from %s:\n got  %s\n want %s", par, path, got, want)
				}
			}
		})
	}
}
