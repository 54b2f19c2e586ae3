// Command mayasim runs the paper's performance experiments (Figures 1, 4,
// 9, 10; Tables VII and XI; the Section V-B sensitivity studies) on the
// synthetic-trace multi-core simulator.
//
// Usage:
//
//	mayasim -experiment fig9 [-warmup 2000000] [-roi 1000000] [-seed 1]
//	        [-csv] [-checkpoint sweep.ckpt] [-timeout 10m] [-retries 2]
//	        [-workers N] [-fault SPEC]
//	        [-snapshot-dir DIR] [-snapshot-every N] [-grace 30s]
//
// Experiments: fig1, fig4, fig9, fig10, table7, table11, fitting, cores,
// llcsize, all.
//
// Every experiment is the list of simulations it needs plus a pure
// aggregation over their results. A simulation (an LLC, a workload mix
// and a scale) is one cell of the resilient harness, and all experiments
// share one runner, so a simulation two figures need (Fig 9's Maya mixes
// are Fig 4's at three reuse ways, its baselines feed Table XI, Fig 1's
// single-core baselines are every weighted speedup's alone runs) is
// simulated once per invocation. A panicking or failing simulation is
// reported in the final failure summary (and the table rows it feeds
// read FAILED) while sibling simulations complete. With -checkpoint,
// completed simulations are appended to the named file and an
// interrupted run (Ctrl-C, kill, timeout) can be rerun with the same
// flags to resume, recomputing only the missing simulations; resumed
// runs render byte-identical tables to uninterrupted ones. -timeout
// bounds each simulation, not the whole run, and -retries counts per
// simulation.
//
// With -snapshot-dir, resume becomes intra-simulation: each in-flight
// simulation keeps a durable, CRC-checked state file under the
// directory, refreshed every -snapshot-every simulator steps, and the
// first SIGINT/SIGTERM makes running simulations save their exact
// simulator state and stop instead of discarding progress; the run is
// cancelled outright only after the -grace window elapses or a second,
// impatient signal arrives. A rerun with the same flags restores each
// saved simulation mid-run and produces bit-identical results to an
// uninterrupted run. Without -checkpoint only those in-flight
// simulations resume: the completed ones were held in memory and are
// recomputed. Snapshots are bound to their configuration: a rerun with a
// different seed, scale, or geometry rejects the stale state and exits 2
// naming the mismatched field.
//
// -fault injects one deterministic fault for drills (see faults.Parse):
// panic:S, error:S, and transient:S:K fail the simulations whose key
// contains S before they run (keys read
// "design=Maya|bench=mcf|cores=8|...", so S may name a design=, bench=
// or cores= field), slowtenant:F:D stalls simulations whose key has the
// field F by D, and — with -snapshot-dir — snapfail:S:N fails a matching
// simulation's N-th state save and killsnap:S:N (or distkill:S:N)
// SIGKILLs the process at it. The fleet's RPC faults (distdrop,
// distdelay) have no site here and exit 2.
//
// Exit status: 0 when every cell of every requested experiment completed
// (including runs resumed from snapshots); 1 when interrupted or when
// cells failed; 2 on usage errors — flag misuse, invalid cache
// configurations (errors wrapping cachemodel.ErrBadConfig, meaning no
// simulation ran for those cells), or when the only failures were stale
// snapshots incompatible with the requested configuration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"mayacache/internal/cachemodel"
	"mayacache/internal/experiments"
	"mayacache/internal/faults"
	"mayacache/internal/harness"
	"mayacache/internal/metrics"
	"mayacache/internal/pprofutil"
	"mayacache/internal/report"
	"mayacache/internal/snapshot"
)

var validExperiments = []string{
	"fig1", "fig4", "fig9", "fig10", "table7", "table11",
	"fitting", "cores", "llcsize", "all",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("experiment", "all", "experiment to run: fig1|fig4|fig9|fig10|table7|table11|fitting|cores|llcsize|all")
		warmup     = flag.Uint64("warmup", 2_000_000, "warmup instructions per core (must be positive)")
		roi        = flag.Uint64("roi", 1_000_000, "measured instructions per core (must be positive)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables")
		workers    = flag.Int("workers", 0, "worker-pool width: simulations run at once (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-simulation timeout (0 disables)")
		retries    = flag.Int("retries", 0, "retries for simulations failing with transient errors")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint file: completed simulations are appended and restored on rerun")
		fault      = flag.String("fault", "", "inject a fault into matching simulations: panic:<substr> | error:<substr> | transient:<substr>:<k> | slowtenant:<field>:<dur> | snapfail:<substr>:<n> | killsnap:<substr>:<n>")
		snapDir    = flag.String("snapshot-dir", "", "directory for durable mid-run simulator state; enables intra-simulation resume and snapshot-on-signal")
		snapEvery  = flag.Uint64("snapshot-every", 0, "periodic auto-snapshot cadence in simulator steps (requires -snapshot-dir; 0 saves only on signal)")
		grace      = flag.Duration("grace", 30*time.Second, "how long the first signal waits for cell snapshots to save before cancelling (0 cancels immediately)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "mayasim: "+format+"\n", args...)
		return 2
	}
	stopCPU, err := pprofutil.StartCPU(*cpuprofile)
	if err != nil {
		return fail("%v", err)
	}
	defer stopCPU()
	defer func() {
		if err := pprofutil.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "mayasim: %v\n", err)
		}
	}()
	if *warmup == 0 {
		return fail("-warmup must be positive: a cold-cache ROI measures fill traffic, not steady state")
	}
	if *roi == 0 {
		return fail("-roi must be positive: zero measured instructions produce no statistics")
	}
	if *workers < 0 {
		return fail("-workers must be >= 0 (got %d)", *workers)
	}
	if *retries < 0 {
		return fail("-retries must be >= 0 (got %d)", *retries)
	}
	if *timeout < 0 {
		return fail("-timeout must be >= 0 (got %v)", *timeout)
	}
	if !isValidExperiment(*exp) {
		msg := fmt.Sprintf("unknown experiment %q", *exp)
		if sug := suggestExperiments(*exp); len(sug) > 0 {
			msg += fmt.Sprintf(" (did you mean %v?)", sug)
		}
		return fail("%s; valid experiments: %v", msg, validExperiments)
	}
	if *snapEvery > 0 && *snapDir == "" {
		return fail("-snapshot-every %d without -snapshot-dir: periodic snapshots need somewhere durable to live", *snapEvery)
	}
	if *grace < 0 {
		return fail("-grace must be >= 0 (got %v)", *grace)
	}
	var set faults.Set
	if *fault != "" {
		if set, err = faults.Parse([]string{*fault}); err != nil {
			return fail("%v", err)
		}
		if err := set.Within(faults.PreRun | faults.PreSave | faults.Save); err != nil {
			return fail("%v", err)
		}
		if set.Within(faults.PreRun) != nil && *snapDir == "" {
			return fail("-fault %s fires on snapshot saves; it needs -snapshot-dir (and usually -snapshot-every)", *fault)
		}
	}
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return fail("creating -snapshot-dir: %v", err)
		}
	}

	// Every figure runs its simulations on one runner, and the runner's
	// checkpoint serves a simulation any earlier figure already ran; an
	// in-memory one when no -checkpoint file persists them.
	cp := harness.NewMemCheckpoint()
	if *checkpoint != "" {
		cp, err = harness.OpenCheckpoint(*checkpoint)
		if err != nil {
			return fail("%v", err)
		}
		defer cp.Close()
	}
	var trig *snapshot.Trigger
	if *snapDir != "" {
		trig = new(snapshot.Trigger)
	}
	runner := harness.New(harness.Options{
		Workers:         *workers,
		CellTimeout:     *timeout,
		Retries:         *retries,
		Seed:            *seed,
		Checkpoint:      cp,
		Faults:          set,
		SnapshotDir:     *snapDir,
		SnapshotEvery:   *snapEvery,
		SnapshotTrigger: trig,
	})

	ctx, cancel := harness.NotifyShutdown(context.Background(), trig, *grace,
		func(msg string) { fmt.Fprintln(os.Stderr, "mayasim: "+msg) })
	defer cancel()

	sc := experiments.Scale{WarmupInstr: *warmup, ROIInstr: *roi, Seed: *seed}
	out := os.Stdout

	emit := func(t *report.Table, incomplete int) {
		if *csv {
			t.CSV(out)
		} else {
			t.Render(out)
		}
		if incomplete > 0 {
			fmt.Fprintf(out, "note: %d row(s) FAILED or missing; aggregates cover completed rows only\n", incomplete)
		}
		fmt.Fprintln(out)
	}

	runFig1 := func() {
		rows, ok, _ := experiments.Fig1Sweep(ctx, runner, sc)
		t := report.NewTable("Fig 1: % dead blocks inserted into a 2MB single-core LLC",
			"benchmark", "suite", "baseline dead%", "mirage dead%")
		var complete []experiments.Fig1Row
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Bench, r.Suite, r.DeadBaseline, r.DeadMirage)
				complete = append(complete, r)
			} else {
				t.AddRow(r.Bench, r.Suite, "FAILED", "FAILED")
			}
		}
		if len(complete) > 0 {
			ab, am := experiments.Fig1Average(complete)
			t.AddRow("AVERAGE", "", ab, am)
		}
		emit(t, len(rows)-len(complete))
	}
	runFig4 := func() {
		rows, ok, _ := experiments.Fig4Sweep(ctx, runner, sc)
		t := report.NewTable("Fig 4: Maya performance vs reuse ways per skew (SPEC homogeneous, normalized WS)",
			"reuse ways/skew", "normalized WS")
		incomplete := 0
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.ReuseWays, r.NormWS)
			} else {
				t.AddRow(r.ReuseWays, "FAILED")
				incomplete++
			}
		}
		emit(t, incomplete)
	}
	// fig9 returns Fig 9's rows in the paper's axis order; Table VII
	// averages them in that order too.
	fig9 := func() ([]experiments.Fig9Row, []bool) {
		rows, ok, _ := experiments.Fig9Sweep(ctx, runner, sc)
		experiments.SortFig9(rows, ok)
		return rows, ok
	}
	runFig9 := func() {
		rows, ok := fig9()
		t := report.NewTable("Fig 9: 8-core homogeneous mixes (weighted speedup normalized to baseline)",
			"benchmark", "suite", "Mirage", "Maya", "base MPKI", "mirage MPKI", "maya MPKI")
		incomplete := 0
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Bench, r.Suite, r.NormMirage, r.NormMaya, r.MPKIBase, r.MPKIMirage, r.MPKIMaya)
			} else {
				t.AddRow(r.Bench, r.Suite, "FAILED", "FAILED", "", "", "")
				incomplete++
			}
		}
		for _, s := range experiments.SummarizeFig9(maskRows(rows, ok)) {
			t.AddRow("GMEAN-"+s.Suite, "", s.NormMirage, s.NormMaya, "", "", "")
		}
		emit(t, incomplete)
	}
	runFig10 := func() {
		rows, ok, _ := experiments.Fig10Sweep(ctx, runner, sc)
		t := report.NewTable("Fig 10: 8-core heterogeneous mixes (weighted speedup normalized to baseline)",
			"mix", "bin", "Mirage", "Maya")
		incomplete := 0
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Mix, string(r.Bin), r.NormMirage, r.NormMaya)
			} else {
				t.AddRow(r.Mix, string(r.Bin), "FAILED", "FAILED")
				incomplete++
			}
		}
		emit(t, incomplete)
	}
	runTable7 := func() {
		// Re-reads Fig 9 and 10: their simulations come back from the
		// checkpoint when those figures already ran.
		fig9Rows, fig9OK := fig9()
		fig10Rows, fig10OK, _ := experiments.Fig10Sweep(ctx, runner, sc)
		t := report.NewTable("Table VII: average LLC MPKI", "workloads", "Baseline", "Mirage", "Maya")
		for _, r := range experiments.Table7(maskRows(fig9Rows, fig9OK), maskRows(fig10Rows, fig10OK)) {
			t.AddRow(r.Class, r.Baseline, r.Mirage, r.Maya)
		}
		emit(t, countFalse(fig9OK)+countFalse(fig10OK))
	}
	runTable11 := func() {
		rows, ok, _ := experiments.Table11Sweep(ctx, runner, sc)
		t := report.NewTable("Table XI: secure partitioning techniques (8-core, SPEC homogeneous)",
			"technique", "performance %", "storage %")
		incomplete := 0
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Technique, r.PerfDelta, r.StorageOver)
			} else {
				t.AddRow(r.Technique, "FAILED", r.StorageOver)
				incomplete++
			}
		}
		emit(t, incomplete)
	}
	runFitting := func() {
		rows, ok, _ := experiments.FittingSweep(ctx, runner, sc)
		t := report.NewTable("Section V-B: LLC-fitting benchmarks under Maya (normalized WS)",
			"benchmark", "Maya/baseline")
		var vals []float64
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Label, r.NormMaya)
				vals = append(vals, r.NormMaya)
			} else {
				t.AddRow(r.Label, "FAILED")
			}
		}
		if len(vals) > 0 {
			t.AddRow("AVERAGE", metrics.Mean(vals))
		}
		emit(t, len(rows)-len(vals))
	}
	runCores := func() {
		rows, ok, _ := experiments.CoreCountSweep(ctx, runner, sc, nil)
		t := report.NewTable("Section V-B: core-count sensitivity (normalized WS)",
			"system", "Maya/baseline")
		incomplete := 0
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Label, r.NormMaya)
			} else {
				t.AddRow(r.Label, "FAILED")
				incomplete++
			}
		}
		emit(t, incomplete)
	}
	runLLCSize := func() {
		rows, ok, _ := experiments.LLCSizeSweep(ctx, runner, sc, nil)
		t := report.NewTable("Section V-B: LLC-size sensitivity (Maya data store, normalized WS)",
			"configuration", "Maya/baseline")
		incomplete := 0
		for i, r := range rows {
			if ok[i] {
				t.AddRow(r.Label, r.NormMaya)
			} else {
				t.AddRow(r.Label, "FAILED")
				incomplete++
			}
		}
		emit(t, incomplete)
	}

	switch *exp {
	case "fig1":
		runFig1()
	case "fig4":
		runFig4()
	case "fig9":
		runFig9()
	case "fig10":
		runFig10()
	case "table7":
		runTable7()
	case "table11":
		runTable11()
	case "fitting":
		runFitting()
	case "cores":
		runCores()
	case "llcsize":
		runLLCSize()
	case "all":
		runFig1()
		runFig9()
		runFig10()
		runTable7()
		runFig4()
		runTable11()
		runFitting()
		runCores()
		runLLCSize()
	}

	if ctx.Err() != nil || trig.Fired() {
		fmt.Fprintln(os.Stderr, "mayasim: interrupted; partial tables above")
		switch {
		case trig.Fired() && *checkpoint != "":
			fmt.Fprintf(os.Stderr, "mayasim: cell snapshots saved under %s; rerun the same command to resume mid-cell from %s\n", *snapDir, *checkpoint)
		case *checkpoint != "":
			fmt.Fprintf(os.Stderr, "mayasim: rerun the same command to resume from %s\n", *checkpoint)
		default:
			fmt.Fprintln(os.Stderr, "mayasim: rerun with -checkpoint FILE to make interrupted sweeps resumable")
		}
		return 1
	}
	if runner.Failed() {
		runner.WriteFailureSummary(os.Stderr)
		if field, only := mismatchOnly(runner.Failures()); only {
			fmt.Fprintf(os.Stderr, "mayasim: all failures are stale-snapshot mismatches (field %q): the saved state was taken under a different configuration; rerun with the original flags, or delete the snapshot files to recompute\n", field)
			return 2
		}
		if badConfigOnly(runner.Failures()) {
			fmt.Fprintln(os.Stderr, "mayasim: all failures are invalid cache configurations (cachemodel.ErrBadConfig): no simulation ran for those cells; fix the configuration and rerun")
			return 2
		}
		return 1
	}
	return 0
}

// badConfigOnly reports whether every recorded failure unwraps to
// cachemodel.ErrBadConfig — a run whose only problem was asking for an
// unbuildable cache, which is usage error (exit 2), not a simulation
// failure (exit 1).
func badConfigOnly(fails []*harness.RunError) bool {
	if len(fails) == 0 {
		return false
	}
	for _, f := range fails {
		if !errors.Is(f.Err, cachemodel.ErrBadConfig) {
			return false
		}
	}
	return true
}

// mismatchOnly reports whether every recorded failure unwraps to a
// snapshot.MismatchError — a run that found only incompatible saved state
// and did no wrong otherwise — and names the first mismatched field.
func mismatchOnly(fails []*harness.RunError) (string, bool) {
	if len(fails) == 0 {
		return "", false
	}
	field := ""
	for _, f := range fails {
		var mm *snapshot.MismatchError
		if !errors.As(f.Err, &mm) {
			return "", false
		}
		if field == "" {
			field = mm.Field
		}
	}
	return field, true
}

func isValidExperiment(name string) bool {
	for _, v := range validExperiments {
		if name == v {
			return true
		}
	}
	return false
}

// suggestExperiments returns valid experiment names within edit distance 2
// of the (unknown) input, closest first.
func suggestExperiments(name string) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, v := range validExperiments {
		if d := editDistance(name, v); d <= 2 {
			cands = append(cands, cand{v, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// maskRows filters rows down to the complete ones.
func maskRows[T any](rows []T, ok []bool) []T {
	out := make([]T, 0, len(rows))
	for i, r := range rows {
		if ok[i] {
			out = append(out, r)
		}
	}
	return out
}

func countFalse(mask []bool) int {
	n := 0
	for _, b := range mask {
		if !b {
			n++
		}
	}
	return n
}
