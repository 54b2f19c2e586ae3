// Secure LLC comparison: run representative 8-core homogeneous mixes
// across the baseline, Mirage, and Maya designs and report normalized
// performance, MPKI, and the storage/area/power trade-off — a miniature of
// the paper's Figures 9 and Tables VIII-X.
package main

import (
	"context"
	"fmt"

	"mayacache/maya"
)

// benches picks one representative of each behaviour class from the
// paper's evaluation.
var benches = []string{
	"mcf",       // reuse-heavy: Maya's filter helps
	"lbm",       // pure streaming: everyone pays DRAM, secure designs pay +4 cycles
	"cactuBSSN", // live set fits 16MB but not 12MB: Maya's trade-off
	"pr",        // conflict-pathological baseline: randomized designs win big
}

func main() {
	fmt.Println("== 8-core homogeneous mixes (normalized IPC throughput vs baseline) ==")
	fmt.Printf("%-11s %10s %10s %10s %12s %12s\n", "benchmark", "baseline", "Mirage", "Maya", "Mirage MPKI", "Maya MPKI")
	for _, b := range benches {
		mix := make([]string, 8)
		for i := range mix {
			mix[i] = b
		}
		ipc := map[maya.Design]float64{}
		mpki := map[maya.Design]float64{}
		for _, d := range []maya.Design{maya.DesignBaseline, maya.DesignMirage, maya.DesignMaya} {
			sys, err := maya.NewSystem(maya.SystemConfig{
				Workloads: mix, Design: d, Seed: 1, FastHash: true,
			})
			if err != nil {
				panic(err)
			}
			res, err := sys.Run(context.Background(), maya.RunSpec{Warmup: 2_000_000, ROI: 800_000})
			if err != nil {
				panic(err)
			}
			ipc[d] = res.IPCSum()
			mpki[d] = res.MPKI()
		}
		base := ipc[maya.DesignBaseline]
		fmt.Printf("%-11s %10.3f %10.3f %10.3f %12.2f %12.2f\n",
			b, 1.0, ipc[maya.DesignMirage]/base, ipc[maya.DesignMaya]/base,
			mpki[maya.DesignMirage], mpki[maya.DesignMaya])
	}

	fmt.Println("\n== The cost side (16MB-class LLC, 7nm) ==")
	fmt.Printf("%-11s %10s %12s %10s %14s\n", "design", "storage", "vs baseline", "area mm2", "static power mW")
	for _, d := range []maya.Design{maya.DesignBaseline, maya.DesignMirage, maya.DesignMaya} {
		st, err := maya.StorageAccount(d)
		if err != nil {
			panic(err)
		}
		c, err := maya.CostEstimate(d)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-11s %8.0fKB %+11.1f%% %10.3f %14.0f\n",
			d, st.TotalKB, st.OverheadVsBaseline()*100, c.AreaMM2, c.StaticPowerMW)
	}

	fmt.Println("\n== The security side (installs per set-associative eviction) ==")
	for _, p := range []struct {
		name  string
		point maya.SecurityPoint
	}{
		{"Maya (6+3+6 ways/skew)", maya.SecurityPoint{BaseWays: 6, ReuseWays: 3, InvalidWays: 6}},
		{"Mirage (8+6 ways/skew)", maya.SecurityPoint{BaseWays: 8, ReuseWays: 0, InvalidWays: 6}},
	} {
		installs, err := maya.InstallsPerSAE(p.point)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-24s %.1e installs (%.0e years at 1 fill/ns)\n",
			p.name, installs, maya.YearsPerSAE(installs))
	}
}
