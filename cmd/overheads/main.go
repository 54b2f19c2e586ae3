// Command overheads prints the paper's cost tables: the exact storage
// accounting of Table VIII, the P-CACTI-substitute energy/power/area
// estimates of Table IX, and the Table X summary combining security
// (analytical model), storage, and optionally simulated performance.
//
// Usage:
//
//	overheads -table storage|energy|summary|all [-perf]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mayacache/internal/analytic"
	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/power"
	"mayacache/internal/report"
)

func main() {
	var (
		table  = flag.String("table", "all", "storage|energy|summary|all")
		perf   = flag.Bool("perf", false, "simulate SPEC homogeneous performance for Table X (slow)")
		warmup = flag.Uint64("warmup", 2_000_000, "warmup instructions per core for -perf")
		roi    = flag.Uint64("roi", 800_000, "ROI instructions per core for -perf")
		csv    = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()
	if *perf && *roi == 0 {
		fmt.Fprintln(os.Stderr, "overheads: -roi must be positive with -perf: weighted speedups divide by IPCs measured over the ROI")
		os.Exit(2)
	}

	emit := func(t *report.Table) {
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	var err error
	switch *table {
	case "storage":
		storageTable(emit)
	case "energy":
		energyTable(emit)
	case "summary":
		err = summaryTable(emit, *perf, *warmup, *roi)
	case "all":
		storageTable(emit)
		energyTable(emit)
		err = summaryTable(emit, *perf, *warmup, *roi)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "overheads: %v\n", err)
		os.Exit(1)
	}
}

func storageTable(emit func(*report.Table)) {
	t := report.NewTable("Table VIII: storage overheads",
		"configuration", "Baseline", "Mirage", "Maya")
	rows := []struct {
		label string
		get   func(power.Storage) string
	}{
		{"Tag bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.TagBits) }},
		{"Coherence bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.CoherenceBits) }},
		{"Priority bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.PriorityBits) }},
		{"FPTR bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.FPTRBits) }},
		{"SDID bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.SDIDBits) }},
		{"Tag entry bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.TagEntryBits) }},
		{"Tag entries", func(s power.Storage) string { return fmt.Sprintf("%d", s.TagEntries) }},
		{"Tag store KB", func(s power.Storage) string { return fmt.Sprintf("%.0f", s.TagStoreKB) }},
		{"Data entry bits", func(s power.Storage) string { return fmt.Sprintf("%d", s.DataEntryBits) }},
		{"Data entries", func(s power.Storage) string { return fmt.Sprintf("%d", s.DataEntries) }},
		{"Data store KB", func(s power.Storage) string { return fmt.Sprintf("%.0f", s.DataStoreKB) }},
		{"Total KB", func(s power.Storage) string { return fmt.Sprintf("%.0f", s.TotalKB) }},
		{"Overhead vs baseline", func(s power.Storage) string { return fmt.Sprintf("%+.1f%%", s.OverheadVsBaseline()*100) }},
	}
	base, mir, maya := power.Account(power.Baseline), power.Account(power.Mirage), power.Account(power.Maya)
	for _, r := range rows {
		t.AddRow(r.label, r.get(base), r.get(mir), r.get(maya))
	}
	emit(t)
}

func energyTable(emit func(*report.Table)) {
	t := report.NewTable("Table IX: energy, power, and area (P-CACTI-substitute model, 7nm)",
		"design", "read energy/access (nJ)", "write energy/access (nJ)", "static power (mW)", "area (mm^2)")
	for _, d := range []power.Design{power.Baseline, power.Mirage, power.Maya, power.MayaISO} {
		c := power.Estimate(d)
		t.AddRow(string(d), c.ReadEnergyNJ, c.WriteEnergyNJ, c.StaticPowerMW, c.AreaMM2)
	}
	emit(t)
}

// securityFor returns the analytical installs-per-SAE for each Table X
// design.
func securityFor(d power.Design) string {
	var T float64
	var ways int
	switch d {
	case power.Maya:
		T, ways = 9, 15
	case power.Mirage:
		T, ways = 8, 14
	case power.MirageLite:
		T, ways = 8, 13
	case power.MayaISO:
		T, ways = 12, 18
	default:
		return "none (conventional)"
	}
	dist, err := analytic.Solve(T)
	if err != nil {
		return "error"
	}
	return analytic.FormatInstalls(dist.InstallsPerSAE(ways))
}

func summaryTable(emit func(*report.Table), perf bool, warmup, roi uint64) error {
	t := report.NewTable("Table X: security, storage, performance summary",
		"design", "security (installs/SAE)", "storage", "performance")
	designs := []struct {
		p power.Design
		e experiments.Design
	}{
		{power.Maya, experiments.DesignMaya},
		{power.Mirage, experiments.DesignMirage},
		{power.MirageLite, experiments.DesignMirageLite},
		{power.MayaISO, experiments.DesignMayaISO},
	}
	perfCol := map[power.Design]string{}
	if perf {
		// The designs share the baseline runs: one runner simulates each
		// distinct simulation once.
		r := harness.New(harness.Options{})
		sc := experiments.Scale{WarmupInstr: warmup, ROIInstr: roi, Seed: 1}
		es := make([]experiments.Design, len(designs))
		for i, d := range designs {
			es[i] = d.e
		}
		gms, _, err := experiments.Table10Sweep(context.Background(), r, sc, es)
		if err != nil {
			return err
		}
		if r.Failed() {
			r.WriteFailureSummary(os.Stderr)
			return fmt.Errorf("%d simulation(s) failed", len(r.Failures()))
		}
		for i, d := range designs {
			perfCol[d.p] = fmt.Sprintf("%+.2f%%", (gms[i]-1)*100)
		}
	}
	for _, d := range designs {
		st := power.Account(d.p)
		perfStr, ok := perfCol[d.p]
		if !ok {
			perfStr = "(run with -perf)"
		}
		t.AddRow(string(d.p), securityFor(d.p),
			fmt.Sprintf("%+.1f%%", st.OverheadVsBaseline()*100), perfStr)
	}
	emit(t)
	return nil
}
