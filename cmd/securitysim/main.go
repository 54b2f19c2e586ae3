// Command securitysim runs the paper's security experiments: the
// bucket-and-balls Monte-Carlo model and the analytical Birth-Death model
// (Figures 6 and 7, Tables I and IV, and the Section VI non-decoupled
// strawman).
//
// Usage:
//
//	securitysim -experiment fig7 [-buckets 16384] [-iters 100000000] [-shards 8]
//
// Experiments: fig6, fig7, table1, table4, nondecoupled, all.
//
// Monte-Carlo experiments run shard-parallel: the iteration budget splits
// into -shards independent streams executed on -workers CPUs. The shard
// count is part of the experiment definition (results are a pure function
// of seed, iterations, and shards; worker count never changes a number),
// and -shards 1 reproduces the historical serial runs byte for byte.
//
// Each experiment runs isolated under the resilient harness: a panic or
// error in one experiment of an `-experiment all` run is reported in the
// final failure summary (exit 1) while the others still produce their
// tables. Invalid flags exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mayacache/internal/analytic"
	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/mc"
	"mayacache/internal/pprofutil"
	"mayacache/internal/report"
)

func main() {
	os.Exit(run())
}

// flags carries the parsed command line through validation.
type flags struct {
	exp     string
	buckets int
	iters   uint64
	seed    uint64
	shards  int
	workers int
	csv     bool
}

// validateFlags enforces the usage contract; any error here exits 2.
func validateFlags(f flags) error {
	switch f.exp {
	case "fig6", "fig7", "table1", "table4", "nondecoupled", "all":
	default:
		return fmt.Errorf("unknown experiment %q (valid: fig6, fig7, table1, table4, nondecoupled, all)", f.exp)
	}
	if f.buckets < 1 {
		return fmt.Errorf("-buckets must be >= 1, got %d", f.buckets)
	}
	if f.iters == 0 {
		return fmt.Errorf("-iters must be positive")
	}
	if f.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", f.shards)
	}
	if uint64(f.shards) > f.iters {
		return fmt.Errorf("-shards %d exceeds -iters %d: a shard cannot run a fractional iteration", f.shards, f.iters)
	}
	if per := f.iters / uint64(f.shards); (f.exp == "fig7" || f.exp == "all") && per < experiments.Fig7Samples {
		return fmt.Errorf("-iters %d over -shards %d leaves %d iterations per shard, fewer than Fig 7's %d histogram samples", f.iters, f.shards, per, experiments.Fig7Samples)
	}
	if f.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", f.workers)
	}
	return nil
}

func run() int {
	var (
		f          flags
		cpuprofile string
		memprofile string
		progress   string
	)
	flag.StringVar(&f.exp, "experiment", "all", "fig6|fig7|table1|table4|nondecoupled|all")
	flag.IntVar(&f.buckets, "buckets", 16384, "buckets per skew (16384 = paper scale)")
	flag.Uint64Var(&f.iters, "iters", 20_000_000, "Monte-Carlo iterations per configuration point")
	flag.Uint64Var(&f.seed, "seed", 1, "seed")
	flag.IntVar(&f.shards, "shards", runtime.GOMAXPROCS(0), "independent Monte-Carlo streams (part of the experiment definition; 1 = historical serial run)")
	flag.IntVar(&f.workers, "workers", harness.DefaultWorkers(), "worker pool width (wall clock only, never results)")
	flag.BoolVar(&f.csv, "csv", false, "emit CSV")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	flag.StringVar(&progress, "progress", "auto", "live progress line on stderr: auto|on|off")
	flag.Parse()

	if err := validateFlags(f); err != nil {
		fmt.Fprintf(os.Stderr, "securitysim: %v\n", err)
		return 2
	}
	showProgress := progress == "on" || (progress == "auto" && stderrIsTerminal())

	stopCPU, err := pprofutil.StartCPU(cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "securitysim: %v\n", err)
		return 2
	}
	defer stopCPU()

	out := os.Stdout
	emit := func(t *report.Table) {
		if f.csv {
			t.CSV(out)
		} else {
			t.Render(out)
		}
		fmt.Fprintln(out)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := harness.New(harness.Options{Workers: 1})
	// runExp isolates one experiment: panics and errors become structured
	// failures on the shared runner instead of killing the process.
	runExp := func(name string, fn func() error) {
		_, _, _ = harness.RunCells(ctx, runner, name, []string{"-"}, func(context.Context, int) (struct{}, error) {
			return struct{}{}, fn()
		})
	}
	spec := experiments.SecuritySpec{
		Buckets: f.buckets,
		Iters:   f.iters,
		Seed:    f.seed,
		Shards:  f.shards,
		Workers: f.workers,
	}

	experimentsFor := map[string][]struct {
		name string
		fn   func() error
	}{}
	mcExp := func(name string, total uint64, body func(spec experiments.SecuritySpec) error) func() error {
		return func() error {
			s := spec
			tracker, finish := newProgress(name, total, showProgress)
			s.Tracker = tracker
			defer finish()
			return body(s)
		}
	}
	all := []struct {
		name string
		fn   func() error
	}{
		{"fig6", mcExp("fig6", experiments.Fig6Iters(spec), func(s experiments.SecuritySpec) error {
			return fig6(ctx, emit, s)
		})},
		{"fig7", mcExp("fig7", spec.Iters, func(s experiments.SecuritySpec) error {
			return fig7(ctx, emit, s)
		})},
		{"table1", func() error { return table1(emit) }},
		{"table4", func() error { return table4(emit) }},
		{"nondecoupled", mcExp("nondecoupled", spec.Iters, func(s experiments.SecuritySpec) error {
			return nonDecoupled(ctx, emit, s)
		})},
	}
	for _, e := range all {
		experimentsFor[e.name] = append(experimentsFor[e.name], e)
		experimentsFor["all"] = append(experimentsFor["all"], e)
	}
	for _, e := range experimentsFor[f.exp] {
		runExp(e.name, e.fn)
	}

	if err := pprofutil.WriteHeap(memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "securitysim: %v\n", err)
		return 2
	}
	if runner.Failed() {
		runner.WriteFailureSummary(os.Stderr)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "securitysim: interrupted")
		return 1
	}
	return 0
}

// stderrIsTerminal reports whether stderr is a character device, the
// -progress auto heuristic: pipes and files stay clean for diffing.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// newProgress builds the experiment's iteration tracker and a finish
// function that clears the progress line. Updates are rate-limited so the
// tracker callback (invoked from every worker) stays cheap.
func newProgress(name string, total uint64, enabled bool) (*mc.Tracker, func()) {
	if !enabled {
		return nil, func() {}
	}
	var mu sync.Mutex
	var last time.Time
	tracker := mc.NewTracker(total, func(done, total uint64) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done < total && now.Sub(last) < 250*time.Millisecond {
			return
		}
		last = now
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d iterations (%.1f%%) ", name, done, total, 100*float64(done)/float64(total))
	})
	return tracker, func() {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(os.Stderr, "\r%*s\r", len(name)+48, "")
	}
}

// fig6 measures iterations per bucket spill as capacity varies from 9 to
// 13; 14 and 15 come from the analytical model (as in the paper, where
// even 10^12 iterations see no spill).
func fig6(ctx context.Context, emit func(*report.Table), spec experiments.SecuritySpec) error {
	t := report.NewTable("Fig 6: iterations per bucket spill vs bucket capacity (Maya model)",
		"capacity (ways/skew)", "iterations/spill", "source")
	points, err := experiments.Fig6(ctx, spec)
	if err != nil {
		return err
	}
	for _, p := range points {
		if p.Result.Spills > 0 {
			t.AddRow(p.Capacity, fmt.Sprintf("%.3g", float64(p.Result.Iterations)/float64(p.Result.Spills)), "simulated")
		} else {
			t.AddRow(p.Capacity, fmt.Sprintf("> %d (no spill observed)", spec.Iters), "simulated")
		}
	}
	d, err := analytic.Solve(9)
	if err != nil {
		return err
	}
	for _, capacity := range []int{14, 15} {
		// Two installs per iteration in the Maya model.
		t.AddRow(capacity, fmt.Sprintf("%.3g", d.InstallsPerSAE(capacity)/2), "analytical")
	}
	emit(t)
	return nil
}

// fig7 compares the simulated occupancy distribution with the analytical
// model.
func fig7(ctx context.Context, emit func(*report.Table), spec experiments.SecuritySpec) error {
	res, err := experiments.Fig7(ctx, spec)
	if err != nil {
		return err
	}
	sim := res.Histogram()
	d, err := analytic.Solve(9)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 7: Pr(bucket has N balls) — simulated vs analytical",
		"N", "simulated", "analytical")
	for n := 0; n <= 16; n++ {
		simv := "-"
		if n < len(sim) && sim[n] > 0 {
			simv = fmt.Sprintf("%.4g", sim[n])
		}
		t.AddRow(n, simv, fmt.Sprintf("%.4g", d.Pr(n)))
	}
	emit(t)
	return nil
}

// table1 computes cache line installs per SAE across reuse/invalid way
// configurations (analytical model; the paper's own table extrapolates the
// same way for the large values).
func table1(emit func(*report.Table)) error {
	t := report.NewTable("Table I: installs per SAE vs reuse ways (analytical model)",
		"reuse ways/skew", "5 invalid ways/skew", "6 invalid ways/skew")
	for _, reuse := range []int{1, 3, 5, 7} {
		row := []any{reuse}
		for _, inv := range []int{5, 6} {
			p := analytic.DesignPoint{BaseWays: 6, ReuseWays: reuse, InvalidWays: inv}
			v, err := p.InstallsPerSAE()
			if err != nil {
				return err
			}
			row = append(row, analytic.FormatInstalls(v))
		}
		t.AddRow(row...)
	}
	emit(t)
	return nil
}

// table4 sweeps the tag-store base associativity.
func table4(emit func(*report.Table)) error {
	t := report.NewTable("Table IV: installs per SAE vs tag-store associativity (analytical model)",
		"invalid ways/skew", "8-ways (3+1)", "18-ways (6+3)", "36-ways (12+6)")
	points := []analytic.DesignPoint{
		{BaseWays: 3, ReuseWays: 1},
		{BaseWays: 6, ReuseWays: 3},
		{BaseWays: 12, ReuseWays: 6},
	}
	for _, inv := range []int{4, 5, 6} {
		row := []any{inv}
		for _, base := range points {
			p := base
			p.InvalidWays = inv
			v, err := p.InstallsPerSAE()
			if err != nil {
				return err
			}
			row = append(row, analytic.FormatInstalls(v))
		}
		t.AddRow(row...)
	}
	emit(t)
	return nil
}

// nonDecoupled evaluates the Section VI strawman: a conventional tag
// geometry kept at 75% occupancy with load-aware fills and global random
// eviction.
func nonDecoupled(ctx context.Context, emit func(*report.Table), spec experiments.SecuritySpec) error {
	t := report.NewTable("Section VI: non-decoupled 75%-threshold design",
		"model", "installs per SAE")
	res, err := experiments.NonDecoupled(ctx, spec)
	if err != nil {
		return err
	}
	if res.Spilled {
		t.AddRow("simulated (first spill)", fmt.Sprintf("%d", res.FirstSpillIter))
	} else {
		t.AddRow("simulated (first spill)", fmt.Sprintf("> %d", spec.Iters))
	}
	d, err := analytic.Solve(12)
	if err != nil {
		return err
	}
	t.AddRow("analytical", analytic.FormatInstalls(d.InstallsPerSAE(16)))
	emit(t)
	return nil
}
