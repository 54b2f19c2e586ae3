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
	"mayacache/internal/cachemodel"
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

	emit := report.Emitter(os.Stdout, *csv)

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
	designs := []power.Storage{
		power.Account(cachemodel.Baseline), power.Account(cachemodel.Mirage), power.Account(cachemodel.Maya),
	}
	headers := []string{"configuration"}
	for _, d := range designs {
		headers = append(headers, d.Design)
	}
	t := report.NewTable("Table VIII: storage overheads", headers...)
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
	for _, r := range rows {
		cells := []any{r.label}
		for _, d := range designs {
			cells = append(cells, r.get(d))
		}
		t.AddRow(cells...)
	}
	emit(t)
}

func energyTable(emit func(*report.Table)) {
	t := report.NewTable("Table IX: energy, power, and area (P-CACTI-substitute model, 7nm)",
		"design", "read energy/access (nJ)", "write energy/access (nJ)", "static power (mW)", "area (mm^2)")
	for _, r := range []cachemodel.Row{cachemodel.Baseline, cachemodel.Mirage, cachemodel.Maya, cachemodel.MayaISO} {
		c := power.Estimate(r)
		t.AddRow(c.Design, c.ReadEnergyNJ, c.WriteEnergyNJ, c.StaticPowerMW, c.AreaMM2)
	}
	emit(t)
}

func summaryTable(emit func(*report.Table), perf bool, warmup, roi uint64) error {
	t := report.NewTable("Table X: security, storage, performance summary",
		"design", "security (installs/SAE)", "storage", "performance")
	designs := []cachemodel.Row{cachemodel.Maya, cachemodel.Mirage, cachemodel.MirageLite, cachemodel.MayaISO}
	var gms []float64 // per design, with -perf
	if perf {
		// The designs share the baseline runs: one runner simulates each
		// distinct simulation once.
		r := harness.New(harness.Options{})
		sc := experiments.Scale{WarmupInstr: warmup, ROIInstr: roi, Seed: 1}
		es := make([]experiments.Design, len(designs))
		for i, d := range designs {
			es[i] = experiments.Design(d.Name)
		}
		var err error
		if gms, _, err = experiments.Table10Sweep(context.Background(), r, sc, es); err != nil {
			return err
		}
		if r.Failed() {
			r.WriteFailureSummary(os.Stderr)
			return fmt.Errorf("%d simulation(s) failed", len(r.Failures()))
		}
	}
	for i, d := range designs {
		installs, err := analytic.InstallsPerSAE(d)
		if err != nil {
			return err
		}
		perfStr := "(run with -perf)"
		if gms != nil {
			perfStr = fmt.Sprintf("%+.2f%%", (gms[i]-1)*100)
		}
		t.AddRow(d.Name, analytic.FormatInstalls(installs),
			fmt.Sprintf("%+.1f%%", power.Account(d).OverheadVsBaseline()*100), perfStr)
	}
	emit(t)
	return nil
}
