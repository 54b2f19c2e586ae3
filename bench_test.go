package mayacache

// One benchmark per table and figure of the paper's evaluation, each
// regenerating a reduced-scale version of the experiment and logging the
// headline rows. The cmd tools (mayasim, securitysim, attacksim,
// overheads) run the full-scale versions with flags.
//
// Run with: go test -bench=. -benchtime=1x

import (
	"context"
	"fmt"
	"testing"

	"mayacache/internal/analytic"
	"mayacache/internal/attack"
	"mayacache/internal/baseline"
	"mayacache/internal/buckets"
	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	maya "mayacache/internal/core"
	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/metrics"
	"mayacache/internal/power"
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

// benchScale keeps each benchmark iteration around a second.
func benchScale() experiments.Scale {
	return experiments.Scale{WarmupInstr: 400_000, ROIInstr: 200_000, Seed: 1}
}

// sweep runs a harness-routed figure runner at benchScale on all CPUs but
// one, failing the benchmark if any cell failed.
func sweep[T any](b *testing.B, run func(context.Context, *harness.Runner, experiments.Scale) ([]T, []bool, error)) []T {
	b.Helper()
	r := harness.New(harness.Options{})
	rows, _, err := run(context.Background(), r, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	if r.Failed() {
		b.Fatalf("failed cells: %v", r.Failures())
	}
	return rows
}

// aloneIPC holds each benchmark's IPC alone on a one-core baseline, the
// denominator of every weighted speedup involving it, by simulation key.
var aloneIPC = map[string]float64{}

// run simulates s at benchScale.
func run(b *testing.B, s experiments.Sim) cachesim.Results {
	b.Helper()
	res, err := s.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// mixResult is one simulation's weighted speedup and LLC MPKI.
type mixResult struct{ WS, MPKI float64 }

// mix simulates benches on design d at benchScale, with Maya's reuse ways
// per skew set to reuseWays (0: the default).
func mix(b *testing.B, benches []string, d experiments.Design, reuseWays int) mixResult {
	b.Helper()
	sc := benchScale()
	res := run(b, experiments.Sim{Design: d, ReuseWays: reuseWays, Benches: benches, Scale: sc})
	ipcs := make([]float64, len(res.Cores))
	alone := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		solo := experiments.Sim{Design: experiments.DesignBaseline, Benches: benches[i : i+1], Scale: sc}
		ipc, ok := aloneIPC[solo.Key()]
		if !ok {
			ipc = run(b, solo).Cores[0].IPC
			aloneIPC[solo.Key()] = ipc
		}
		ipcs[i], alone[i] = c.IPC, ipc
	}
	ws, err := metrics.WeightedSpeedup(ipcs, alone)
	if err != nil {
		b.Fatal(err)
	}
	return mixResult{WS: ws, MPKI: res.MPKI()}
}

// benchSubset is a representative slice of the benchmark registry: one
// Maya gainer, one streaming loser, one capacity-wedge loser, one
// latency-neutral, one GAP loser, and the conflict-pathological pr.
var benchSubset = []string{"mcf", "lbm", "cactuBSSN", "xz", "cc", "pr"}

func Benchmark_Fig1_DeadBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b, experiments.Fig1Sweep)
		ab, am := experiments.Fig1Average(rows)
		b.ReportMetric(ab, "dead%baseline")
		b.ReportMetric(am, "dead%mirage")
		if i == 0 {
			b.Logf("Fig 1 averages: baseline %.1f%%, Mirage %.1f%% dead (paper: >80%%)", ab, am)
		}
	}
}

func Benchmark_Fig4_ReuseWaySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Reduced sweep: reuse ways {1, 3} on the subset.
		for _, ways := range []int{1, 3} {
			var sum, n float64
			for _, bench := range benchSubset[:3] {
				benches := homog(bench, 8)
				base := mix(b, benches, experiments.DesignBaseline, 0)
				res := mix(b, benches, experiments.DesignMaya, ways)
				sum += res.WS / base.WS
				n++
			}
			if i == 0 {
				b.Logf("Fig 4: %d reuse ways/skew -> normalized WS %.3f", ways, sum/n)
			}
		}
	}
}

func Benchmark_Fig6_BucketSpills(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, capacity := range []int{9, 10, 11, 12} {
			cfg := buckets.MayaDefault(4096, 1)
			cfg.Capacity = capacity
			m := buckets.New(cfg)
			m.Run(500_000)
			if i == 0 {
				rate := "none"
				if m.Spills() > 0 {
					rate = fmt.Sprintf("1 per %.2g iters", float64(m.Iterations())/float64(m.Spills()))
				}
				b.Logf("Fig 6: capacity %d -> spills %s", capacity, rate)
			}
		}
	}
}

func Benchmark_Fig7_Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := buckets.New(buckets.MayaDefault(4096, 1))
		for s := 0; s < 50; s++ {
			m.Run(20_000)
			m.SampleHistogram()
		}
		d, err := analytic.Solve(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			h := m.Histogram()
			for _, n := range []int{8, 9, 10, 11} {
				b.Logf("Fig 7: Pr(n=%d) simulated %.4f analytical %.4f", n, h[n], d.Pr(n))
			}
		}
	}
}

func Benchmark_Fig8_OccupancyAttack(b *testing.B) {
	const sets = 64
	for i := 0; i < b.N; i++ {
		designs := []struct {
			name      string
			mk        func(seed uint64) cachemodel.LLC
			occupancy int
		}{
			{"16-way", func(seed uint64) cachemodel.LLC {
				return mustLLC(baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
			}, sets * 16},
			{"Maya", func(seed uint64) cachemodel.LLC {
				return mustLLC(maya.NewChecked(maya.Config{SetsPerSkew: sets, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6, Seed: seed,
					Hasher: cachemodel.NewXorHasher(2, 6, seed)}))
			}, 2 * sets * 12},
			{"FA", func(seed uint64) cachemodel.LLC {
				return mustLLC(baseline.NewFullyAssociativeChecked(sets*16, seed, true))
			}, 2 * sets * 16},
		}
		for _, d := range designs {
			med, err := attack.Trials{Runs: 1, Workers: 1, Seed: 1}.MedianDistinguishCtx(context.Background(), d.mk,
				func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
					va := attack.NewModExpVictim(1, 64, 1<<21, attack.CacheToucher(c, 2))
					vb := attack.NewModExpVictim(4, 64, 1<<21, attack.CacheToucher(c, 3))
					return va, vb
				}, d.occupancy, 16, 4000, 4.5)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Fig 8 (modexp): %s needs %.0f encryptions to distinguish keys", d.name, med)
			}
		}
	}
}

func homog(bench string, n int) []string {
	mix := make([]string, n)
	for i := range mix {
		mix[i] = bench
	}
	return mix
}

func Benchmark_Fig9_Homogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range benchSubset {
			benches := homog(bench, 8)
			base := mix(b, benches, experiments.DesignBaseline, 0)
			mir := mix(b, benches, experiments.DesignMirage, 0)
			may := mix(b, benches, experiments.DesignMaya, 0)
			if i == 0 {
				b.Logf("Fig 9: %-10s Mirage %.3f Maya %.3f (baseline MPKI %.1f)",
					bench, mir.WS/base.WS, may.WS/base.WS, base.MPKI)
			}
		}
	}
}

func Benchmark_Fig10_Heterogeneous(b *testing.B) {
	mixes := trace.HeteroMixes()[:4] // M1-M4 at bench scale
	for i := 0; i < b.N; i++ {
		for _, m := range mixes {
			base := mix(b, m.Benchmarks, experiments.DesignBaseline, 0)
			mir := mix(b, m.Benchmarks, experiments.DesignMirage, 0)
			may := mix(b, m.Benchmarks, experiments.DesignMaya, 0)
			if i == 0 {
				b.Logf("Fig 10: %-4s (%s) Mirage %.3f Maya %.3f",
					m.Name, m.Bin, mir.WS/base.WS, may.WS/base.WS)
			}
		}
	}
}

func Benchmark_Table1_ReuseWays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, reuse := range []int{1, 3, 5, 7} {
			for _, inv := range []int{5, 6} {
				p := analytic.DesignPoint{BaseWays: 6, ReuseWays: reuse, InvalidWays: inv}
				v, err := p.InstallsPerSAE()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("Table I: reuse=%d invalid=%d -> %s", reuse, inv, analytic.FormatInstalls(v))
				}
			}
		}
	}
}

func Benchmark_Table4_Associativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pt := range []analytic.DesignPoint{
			{BaseWays: 3, ReuseWays: 1, InvalidWays: 6},
			{BaseWays: 6, ReuseWays: 3, InvalidWays: 6},
			{BaseWays: 12, ReuseWays: 6, InvalidWays: 6},
		} {
			v, err := pt.InstallsPerSAE()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Table IV: %d-way base (%d+%d) -> %s",
					2*(pt.BaseWays+pt.ReuseWays), pt.BaseWays, pt.ReuseWays, analytic.FormatInstalls(v))
			}
		}
	}
}

func Benchmark_Table7_MPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var base, mir, may float64
		for _, bench := range benchSubset {
			benches := homog(bench, 8)
			base += mix(b, benches, experiments.DesignBaseline, 0).MPKI
			mir += mix(b, benches, experiments.DesignMirage, 0).MPKI
			may += mix(b, benches, experiments.DesignMaya, 0).MPKI
		}
		n := float64(len(benchSubset))
		b.ReportMetric(base/n, "mpki-base")
		b.ReportMetric(may/n, "mpki-maya")
		if i == 0 {
			b.Logf("Table VII: avg MPKI baseline %.1f Mirage %.1f Maya %.1f", base/n, mir/n, may/n)
		}
	}
}

func Benchmark_Table8_Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []power.Design{power.Baseline, power.Mirage, power.Maya} {
			s := power.Account(d)
			if i == 0 {
				b.Logf("Table VIII: %-8s total %.0f KB (%+.1f%%)", d, s.TotalKB, s.OverheadVsBaseline()*100)
			}
		}
	}
}

func Benchmark_Table9_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []power.Design{power.Baseline, power.Mirage, power.Maya, power.MayaISO} {
			c := power.Estimate(d)
			if i == 0 {
				b.Logf("Table IX: %-8s read %.3f nJ write %.3f nJ static %.0f mW area %.3f mm2",
					d, c.ReadEnergyNJ, c.WriteEnergyNJ, c.StaticPowerMW, c.AreaMM2)
			}
		}
	}
}

func Benchmark_Table10_Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := []struct {
			d    power.Design
			T    float64
			ways int
		}{
			{power.Maya, 9, 15},
			{power.Mirage, 8, 14},
			{power.MirageLite, 8, 13},
			{power.MayaISO, 12, 18},
		}
		for _, r := range rows {
			dist, err := analytic.Solve(r.T)
			if err != nil {
				b.Fatal(err)
			}
			st := power.Account(r.d)
			if i == 0 {
				b.Logf("Table X: %-11s security %s storage %+.1f%%",
					r.d, analytic.FormatInstalls(dist.InstallsPerSAE(r.ways)), st.OverheadVsBaseline()*100)
			}
		}
	}
}

func Benchmark_Table11_Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b, experiments.Table11Sweep)
		for _, r := range rows {
			if i == 0 {
				b.Logf("Table XI: %-13s performance %+.1f%% storage +%.1f%%", r.Technique, r.PerfDelta, r.StorageOver)
			}
		}
	}
}
