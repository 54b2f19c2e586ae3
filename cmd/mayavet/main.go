// Command mayavet runs the repository's simulator-specific static
// analyzers over Go packages:
//
//	go run ./cmd/mayavet ./...
//
// Analyzers (see internal/vet for the rationale behind each):
//
//	randsource     randomness outside internal/rng (math/rand, crypto/rand,
//	               wall-clock seeds) that would break reproducibility
//	maporder       map iteration order leaking into simulation state
//	uncheckederr   silently dropped error returns
//	narrowcast     unchecked narrowing conversions on index/pointer fields
//	seedflow       nondeterminism sources flowing into state, results,
//	               snapshot payloads, or rng seed material (interprocedural)
//	snapshotfields stateful struct fields missing from the MAYASNAP codec
//	goroutinectx   goroutines with no reachable cancellation path
//	atomicmix      fields accessed both atomically and with plain loads
//
// Exit taxonomy: 0 clean, 1 findings, 2 usage or load error. Findings are
// printed in file:line:col form (-format json for the machine interface).
// Every finding fails the run; individual lines are suppressed with
// `//mayavet:ignore [analyzer] -- reason` directives.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mayacache/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mayavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = fs.Bool("list", false, "list analyzers and exit")
		typeerr = fs.Bool("typeerrors", false, "also print type-checker diagnostics")
		format  = fs.String("format", "text", "output format: text or json")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mayavet [flags] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the Maya simulator's static analyzers over the given package\n")
		fmt.Fprintf(stderr, "patterns (default ./...). Exits 1 when any finding survives.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "mayavet: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	analyzers := vet.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		known := map[string]*vet.Analyzer{}
		for _, a := range analyzers {
			known[a.Name] = a
		}
		var filtered []*vet.Analyzer
		seen := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := known[name]
			if !ok {
				fmt.Fprintf(stderr, "mayavet: unknown analyzer %q\n", name)
				return 2
			}
			if !seen[name] {
				seen[name] = true
				filtered = append(filtered, a)
			}
		}
		analyzers = filtered
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "mayavet: %v\n", err)
		return 2
	}
	pkgs, err := vet.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mayavet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		// A typo'd pattern must not pass vacuously in CI.
		fmt.Fprintf(stderr, "mayavet: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}
	if *typeerr {
		for _, p := range pkgs {
			for _, e := range p.TypeErrors {
				fmt.Fprintf(stderr, "mayavet: typecheck %s: %v\n", p.ImportPath, e)
			}
		}
	}

	findings := vet.RunAnalyzers(pkgs, analyzers)
	if *format == "json" {
		if err := vet.WriteJSON(stdout, findings, cwd); err != nil {
			fmt.Fprintf(stderr, "mayavet: %v\n", err)
			return 2
		}
	} else {
		vet.WriteText(stdout, findings, cwd)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "mayavet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
