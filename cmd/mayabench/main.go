// Command mayabench runs the simulator's continuous benchmark suite and
// writes a machine-readable report.
//
// Usage:
//
//	mayabench [-quick] [-out BENCH.json] [-seed 1] [-compare baseline.json]
//
// The suite measures the cost of *simulating* each registered LLC design
// (Maya, Mirage, Baseline, CEASER-S), not the designs' architectural
// behavior: per-design access-path microbenchmarks (ns/access,
// allocs/access, bytes/access) and a 4-core mixed-workload macro run
// (trace events per second). Workloads are pinned and seed-deterministic
// so numbers are comparable across commits on the same machine.
//
// The micro tier reports two rows per randomized design: the overhead
// tier (XorHasher, which runs without the index memo — simulator
// bookkeeping, comparable across history) and the real tier (production
// PRINCE hasher with the epoch-tagged index memo, reporting the memo hit
// rate).
//
// -quick shrinks instruction budgets ~5x for CI smoke runs. A summary is
// printed to stdout; the full report goes to -out as indented JSON.
// -compare loads a previously written report, compares both tiers with
// it and prints each tier's verdict, and fails (exit 1) when any micro or
// macro row regresses more than 10% against its baseline row after
// normalizing out the run-wide machine-speed factor — the CI perf gate
// (see bench.CompareMicro/CompareMacro for the exact rule). A failing
// micro tier does not stop the macro tier's comparison.
//
// Exit status: 0 on success, 1 when any benchmark fails, 2 on flag
// misuse.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mayacache/internal/bench"
	"mayacache/internal/pprofutil"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "shrink instruction budgets ~5x (CI smoke run)")
	out := flag.String("out", "BENCH.json", "path for the JSON report")
	seed := flag.Uint64("seed", 1, "seed for all benchmark randomness")
	compare := flag.String("compare", "", "baseline BENCH.json: fail when any micro or macro row regresses more than 10% against it (machine-speed normalized)")
	microOnly := flag.Bool("micro", false, "run only the micro tier (for profiling the access path)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "mayabench: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	stopCPU, err := pprofutil.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mayabench: %v\n", err)
		return 2
	}
	defer stopCPU()
	defer func() {
		if err := pprofutil.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "mayabench: %v\n", err)
		}
	}()

	r, err := bench.Run(bench.Options{
		Quick:     *quick,
		Seed:      *seed,
		MicroOnly: *microOnly,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mayabench: %v\n", err)
		return 1
	}
	if err := r.WriteJSON(*out); err != nil {
		fmt.Fprintf(os.Stderr, "mayabench: %v\n", err)
		return 1
	}

	fmt.Printf("%-10s %9s %12s %14s %14s %9s\n", "design", "hasher", "ns/access", "allocs/access", "B/access", "memo hit")
	for _, m := range r.Micro {
		hasher, hit := "xor", "-"
		if m.RealHash {
			hasher = "real"
			hit = fmt.Sprintf("%8.2f%%", m.MemoHitRate*100)
		}
		fmt.Printf("%-10s %9s %12.1f %14.4f %14.1f %9s\n",
			m.Design, hasher, m.NsPerAccess, m.AllocsPerAccess, m.BytesPerAccess, hit)
	}
	fmt.Println()
	fmt.Printf("%-10s %14s %10s %8s\n", "design", "events/sec", "events", "IPCsum")
	for _, m := range r.Macro {
		fmt.Printf("%-10s %14.0f %10d %8.3f\n", m.Design, m.EventsPerSec, m.Events, m.IPCSum)
	}
	fmt.Printf("\nreport written to %s\n", *out)
	if *compare != "" {
		base, err := bench.ReadJSON(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mayabench: %v\n", err)
			return 1
		}
		if !gate(os.Stdout, os.Stderr, r, base, *compare) {
			return 1
		}
	}
	return 0
}

// gate compares both tiers of r with base, the report read from
// baseName, and prints each tier's verdict: a pass to out, a failure with
// its rows to errw. Both tiers are always compared, so a red micro tier
// never hides the macro tier's verdict. It reports whether both passed.
func gate(out, errw io.Writer, r, base *bench.Report, baseName string) bool {
	const tol = 0.10
	ok := true
	for _, tier := range []struct {
		name    string
		compare func(r, base *bench.Report, tol float64) error
	}{{"micro", bench.CompareMicro}, {"macro", bench.CompareMacro}} {
		if err := tier.compare(r, base, tol); err != nil {
			fmt.Fprintf(errw, "mayabench: %s tier FAILED against %s: %v\n", tier.name, baseName, err)
			ok = false
			continue
		}
		fmt.Fprintf(out, "%s tier passed: within %.0f%% of %s\n", tier.name, tol*100, baseName)
	}
	return ok
}
