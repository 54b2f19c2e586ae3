package buckets

import (
	"math"
	"testing"

	"mayacache/internal/analytic"
	"mayacache/internal/cachemodel"
)

func TestConservationMaya(t *testing.T) {
	m := New(MayaDefault(256, 1))
	m.Run(200000)
	if err := m.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestConservationMirage(t *testing.T) {
	m := New(ForRow(cachemodel.Mirage, 256, 2))
	m.Run(200000)
	if err := m.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestConservationThreshold(t *testing.T) {
	m := New(ThresholdDefault(256, 3))
	m.Run(200000)
	if err := m.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSpillsAtFullCapacity(t *testing.T) {
	// With the paper's 6 invalid ways per skew, spills occur once per
	// ~1e32 installs; a million iterations must see none.
	m := New(MayaDefault(1024, 4))
	m.Run(1000000)
	if m.Spills() != 0 {
		t.Fatalf("%d spills with full invalid-way provisioning", m.Spills())
	}
}

func TestSpillsAtReducedCapacity(t *testing.T) {
	// Capacity 10 (only one spare way) spills fast.
	cfg := MayaDefault(1024, 5)
	cfg.Capacity = 10
	m := New(cfg)
	m.Run(200000)
	if m.Spills() == 0 {
		t.Fatal("no spills at capacity 10")
	}
	if err := m.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillFrequencyDropsWithCapacity(t *testing.T) {
	// Fig 6's trend: each extra way reduces spill frequency by orders of
	// magnitude.
	rates := map[int]float64{}
	for _, cap := range []int{9, 10, 11} {
		cfg := MayaDefault(1024, 6)
		cfg.Capacity = cap
		m := New(cfg)
		m.Run(300000)
		rates[cap] = float64(m.Spills()) / float64(m.Iterations())
	}
	if !(rates[9] > rates[10] && rates[10] > rates[11]) {
		t.Fatalf("spill rates not monotone: %v", rates)
	}
	if rates[9] < 10*rates[11] {
		t.Fatalf("spill rate drop too shallow: %v", rates)
	}
}

func TestOccupancyMatchesAnalyticalModel(t *testing.T) {
	// Fig 7: the simulated Pr(n=N) must track the Birth-Death model
	// around the distribution's body.
	m := New(MayaDefault(2048, 7))
	for i := 0; i < 200; i++ {
		m.Run(2000)
		m.SampleHistogram()
	}
	sim := m.Histogram()
	d, err := analytic.SolveRow(cachemodel.Maya)
	if err != nil {
		t.Fatal(err)
	}
	for n := 5; n <= 12; n++ {
		got := sim[n]
		want := d.Pr(n)
		if want < 1e-4 {
			continue // too rare to estimate at this scale
		}
		if got < want/2 || got > want*2 {
			t.Errorf("Pr(n=%d): simulated %.4g vs analytical %.4g", n, got, want)
		}
	}
}

func TestMeanOccupancyIsSteadyState(t *testing.T) {
	m := New(MayaDefault(1024, 8))
	m.Run(100000)
	for i := 0; i < 50; i++ {
		m.Run(1000)
		m.SampleHistogram()
	}
	h := m.Histogram()
	mean := 0.0
	for n, p := range h {
		mean += float64(n) * p
	}
	if math.Abs(mean-9) > 0.05 {
		t.Fatalf("mean occupancy %.3f, want 9", mean)
	}
}

func TestInstallAccounting(t *testing.T) {
	m := New(MayaDefault(128, 9))
	m.Run(1000)
	if m.Installs() != 2000 {
		t.Fatalf("Maya installs = %d after 1000 iterations, want 2000", m.Installs())
	}
	mm := New(ForRow(cachemodel.Mirage, 128, 9))
	mm.Run(1000)
	if mm.Installs() != 1000 {
		t.Fatalf("Mirage installs = %d after 1000 iterations, want 1000", mm.Installs())
	}
}

func TestRunUntilSpill(t *testing.T) {
	cfg := MayaDefault(512, 10)
	cfg.Capacity = 9 // zero spare ways: spills immediately likely
	m := New(cfg)
	iters, spilled := m.RunUntilSpill(100000)
	if !spilled {
		t.Fatal("no spill at capacity 9 within 100K iterations")
	}
	if iters == 0 {
		t.Fatal("zero iterations reported")
	}
}

func TestThresholdSpillsQuickly(t *testing.T) {
	// Section VI: the non-decoupled design gets SAEs in under 1e9
	// installs; at model scale spills show up fast.
	m := New(ThresholdDefault(1024, 11))
	_, spilled := m.RunUntilSpill(5_000_000)
	if !spilled {
		t.Fatal("threshold design did not spill within 5M installs")
	}
}

func TestMirageMoreRobustThanThreshold(t *testing.T) {
	th := New(ThresholdDefault(1024, 12))
	thIters, _ := th.RunUntilSpill(2_000_000)
	mi := New(ForRow(cachemodel.Mirage, 1024, 12))
	miIters, miSpilled := mi.RunUntilSpill(2_000_000)
	if miSpilled && miIters < thIters {
		t.Fatalf("Mirage spilled faster (%d) than the threshold design (%d)", miIters, thIters)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Mode: ModeMaya, Skews: 0, BucketsPerSkew: 16, Capacity: 15, AvgP0: 3, AvgP1: 6},
		{Mode: ModeMaya, Skews: 2, BucketsPerSkew: 16, Capacity: 8, AvgP0: 3, AvgP1: 6},
		{Mode: ModeMaya, Skews: 2, BucketsPerSkew: 16, Capacity: 15, AvgP0: 0, AvgP1: 6},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeMaya: "maya", ModeMirage: "mirage", ModeThreshold: "threshold",
	} {
		if m.String() != want {
			t.Errorf("String = %q, want %q", m.String(), want)
		}
	}
}

func BenchmarkMayaIteration(b *testing.B) {
	m := New(MayaDefault(16384, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
