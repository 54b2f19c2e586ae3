package cachesim

import (
	"errors"
	"fmt"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// mixM16 returns Table VI mix M16's benchmarks, the fig9-mix8 workload.
func mixM16(t testing.TB) []string {
	t.Helper()
	for _, m := range trace.HeteroMixes() {
		if m.Name == "M16" {
			return m.Benchmarks
		}
	}
	t.Fatal("mix M16 not found")
	return nil
}

// boundSystem builds a production-shaped system around a registry design,
// as the experiments layer does: FastHash at the default sets per core,
// the default core with the stride prefetcher on if asked, one DRAM
// channel per four cores, and one generator per benchmark.
func boundSystem(t testing.TB, design string, benches []string, prefetch bool) *System {
	t.Helper()
	llc, err := cachemodel.Build(design, cachemodel.BuildOptions{Cores: len(benches), Seed: 1, FastHash: true})
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultCoreParams()
	if prefetch {
		params.Prefetch = PrefetchConfig{Degree: 2}
	}
	gens := make([]trace.Generator, len(benches))
	for i, b := range benches {
		gens[i] = benchGen(t, b, i, 1)
	}
	dram := DefaultDRAMConfig()
	dram.Channels = (len(benches) + 3) / 4
	return New(Config{Cores: len(benches), Core: params, LLC: llc, DRAM: dram, Seed: 1}, gens)
}

// boundedImage encodes sys and fails the test if the image outgrows
// StateBound, naming the state it was taken in.
func boundedImage(t *testing.T, sys *System, state string) []byte {
	t.Helper()
	img, err := sys.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if bound := sys.StateBound(); len(img) > bound {
		t.Errorf("%s: the %d-byte image exceeds its %d-byte StateBound", state, len(img), bound)
	}
	return img
}

// TestStateBoundCoversEveryImage holds every registered design's System,
// at 1, 2 and 8 cores with the prefetcher off and on, within its
// StateBound in four states: fresh, at the first save of the warmup and
// of the ROI, and restored from that ROI save. Each save is also handed
// the System's bound.
func TestStateBoundCoversEveryImage(t *testing.T) {
	mix := mixM16(t)
	errTaken := errors.New("mid-ROI image taken")
	for _, row := range cachemodel.Registered() {
		for _, cores := range []int{1, 2, 8} {
			for _, prefetch := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%dc/prefetch=%v", row.Name, cores, prefetch), func(t *testing.T) {
					sys := boundSystem(t, row.Name, mix[:cores], prefetch)
					if !sys.Snapshottable() {
						t.Skip("the design does not snapshot")
					}
					boundedImage(t, sys, "fresh")
					var warmup bool
					var roi []byte
					sys.SetAutoSnapshot(&AutoSnapshot{
						Every: 256,
						Save: func(bound int, _ func(*snapshot.Encoder) error) error {
							if want := sys.StateBound(); bound != want {
								t.Errorf("a save was handed bound %d, want StateBound %d", bound, want)
							}
							if sys.phase == snapshot.PhaseWarmup {
								if !warmup {
									warmup = true
									boundedImage(t, sys, "mid-warmup")
								}
								return nil
							}
							roi = boundedImage(t, sys, "mid-ROI")
							return errTaken
						},
					})
					if _, err := Run(t.Context(), sys, RunSpec{Warmup: 5000, ROI: 5000}); !errors.Is(err, errTaken) {
						t.Fatalf("run returned %v, want the mid-ROI save's stop", err)
					}
					if !warmup {
						t.Fatal("no save fell in the warmup")
					}
					twin := boundSystem(t, row.Name, mix[:cores], prefetch)
					if err := twin.RestoreState(roi); err != nil {
						t.Fatal(err)
					}
					boundedImage(t, twin, "restored")
				})
			}
		}
	}
}

// TestStateBoundIsTight holds StateBound within 5 % of the image at the
// shapes the serve-closed benchmark encodes: a session (Maya, one core,
// mcf) and mix8 (Maya, M16 on eight cores), each after 50K + 100K
// instructions per core. A buffer sized from the bound wastes little.
func TestStateBoundIsTight(t *testing.T) {
	for _, shape := range []struct {
		name    string
		benches []string
	}{{"session", []string{"mcf"}}, {"mix8", mixM16(t)}} {
		t.Run(shape.name, func(t *testing.T) {
			sys := boundSystem(t, "Maya", shape.benches, false)
			mustRun(t, sys, 50_000, 100_000)
			img := boundedImage(t, sys, "after the run")
			if bound := sys.StateBound(); float64(bound) > 1.05*float64(len(img)) {
				t.Errorf("StateBound %d is more than 1.05 times the %d-byte image", bound, len(img))
			}
		})
	}
}

// TestEncodeStateAllocatesOnce pins EncodeState at one allocation: the
// buffer, sized at StateBound before the encode.
func TestEncodeStateAllocatesOnce(t *testing.T) {
	sys := boundSystem(t, "Maya", []string{"mcf"}, false)
	mustRun(t, sys, 20_000, 20_000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sys.EncodeState(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("EncodeState allocated %v times, want 1", allocs)
	}
}
