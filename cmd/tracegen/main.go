// Command tracegen inspects the synthetic workload models: it prints
// per-benchmark single-run diagnostics (IPC, MPKI, dead-block fraction,
// DRAM behaviour) for any design, and can dump raw trace events. It is the
// calibration companion to cmd/mayasim: each row is the homogeneous
// simulation mayasim runs (experiments.RunGridCell), on the same system.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/experiments"
	"mayacache/internal/report"
	"mayacache/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "mcf", "benchmark name or 'all'")
		design = flag.String("design", "Baseline", fmt.Sprint("registered design: ", cachemodel.Registered()))
		cores  = flag.Int("cores", 1, "number of cores (homogeneous)")
		warmup = flag.Uint64("warmup", 1_000_000, "warmup instructions per core")
		roi    = flag.Uint64("roi", 500_000, "ROI instructions per core")
		seed   = flag.Uint64("seed", 1, "seed")
		dump   = flag.Int("dump", 0, "dump N raw trace events and exit")
	)
	flag.Parse()

	if *dump > 0 {
		if err := dumpEvents(os.Stdout, *bench, *seed, *dump); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	benches := []string{*bench}
	if *bench == "all" {
		benches = append(trace.SpecMemIntensive(), trace.GapMemIntensive()...)
	}
	t := report.NewTable(
		fmt.Sprintf("%s @ %d cores (warmup %d, roi %d)", *design, *cores, *warmup, *roi),
		"bench", "IPC0", "MPKI", "dead%", "taghit%", "datahit%", "dram R", "dram W", "rowhit%")
	for _, b := range benches {
		res, err := diag(b, experiments.Design(*design), *cores, *warmup, *roi, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			if errors.Is(err, cachemodel.ErrBadConfig) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		st := res.LLCStats
		rowHit := 0.0
		if res.DRAMRowHits+res.DRAMRowMisses > 0 {
			rowHit = float64(res.DRAMRowHits) / float64(res.DRAMRowHits+res.DRAMRowMisses) * 100
		}
		t.AddRow(b,
			res.Cores[0].IPC,
			res.MPKI(),
			st.DeadBlockFraction()*100,
			pct(st.TagHits, st.Accesses),
			pct(st.DataHits, st.Accesses),
			fmt.Sprintf("%d", res.DRAMReads),
			fmt.Sprintf("%d", res.DRAMWrites),
			rowHit)
	}
	t.Render(os.Stdout)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// dumpEvents writes the first n events of bench's core-0 generator to w,
// one line each. An unknown benchmark is an error, as on the table path.
func dumpEvents(w io.Writer, bench string, seed uint64, n int) error {
	p, err := trace.Lookup(bench)
	if err != nil {
		return err
	}
	g, err := trace.NewGenerator(p, 0, seed)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		e := g.Next()
		if _, err := fmt.Fprintf(w, "gap=%d line=%#x write=%v\n", e.Gap, e.Line, e.Write); err != nil {
			return err
		}
	}
	return nil
}

// diag simulates bench on every core of a shared LLC of design d: the
// grid cell mayasim's sweeps, the fleet and the session service run,
// memory system included (one DRAM channel per four cores). An unknown or
// unbuildable design, or a core count below one, returns an error
// wrapping cachemodel.ErrBadConfig before anything is simulated.
func diag(bench string, d experiments.Design, cores int, warmup, roi, seed uint64) (cachesim.Results, error) {
	return experiments.RunGridCell(context.Background(), d, bench, cores,
		experiments.Scale{WarmupInstr: warmup, ROIInstr: roi, Seed: seed})
}
