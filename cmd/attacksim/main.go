// Command attacksim runs the paper's attack experiments: the Fig 8 LLC
// occupancy attack (distinguishing two AES keys and two modular-
// exponentiation keys through the cache-occupancy channel on a 16-way
// set-associative cache, the Maya cache, and a fully-associative cache),
// and an eviction-set construction comparison across designs.
//
// Usage:
//
//	attacksim -experiment fig8 [-runs 5] [-max 20000] [-sets 64]
//	attacksim -experiment evictionset
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mayacache/internal/attack"
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/harness"
	"mayacache/internal/report"

	// The families this binary builds rows of; nothing else names them,
	// and Row.Build fails for a family that is not linked.
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

func main() {
	os.Exit(run())
}

// flags holds the parsed command line.
type flags struct {
	exp                             string
	runs, max, sets, noise, workers int
	seed                            uint64
}

// validateFlags enforces the usage contract before any simulation runs;
// any error here exits 2.
func validateFlags(f flags) error {
	switch f.exp {
	case "fig8", "evictionset", "all":
	default:
		return fmt.Errorf("unknown experiment %q (valid: fig8, evictionset, all)", f.exp)
	}
	if f.runs < 1 {
		return fmt.Errorf("-runs must be >= 1, got %d", f.runs)
	}
	if f.max < 1 {
		return fmt.Errorf("-max must be >= 1, got %d", f.max)
	}
	if f.noise < 0 {
		return fmt.Errorf("-noise must be >= 0, got %d", f.noise)
	}
	// The randomized designs index sets with PRINCE, which needs at least
	// one set-index bit, and every design needs a power-of-two set count.
	if f.sets < 2 || f.sets&(f.sets-1) != 0 {
		return fmt.Errorf("-sets must be a power of two >= 2, got %d", f.sets)
	}
	if f.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", f.workers)
	}
	return nil
}

func run() int {
	var f flags
	flag.StringVar(&f.exp, "experiment", "all", "fig8|evictionset|all")
	flag.IntVar(&f.runs, "runs", 3, "attack repetitions (median reported)")
	flag.IntVar(&f.max, "max", 20000, "max encryptions per attack")
	flag.IntVar(&f.sets, "sets", 64, "cache sets, a power of two >= 2 (scale knob; 64 = 256KB-class caches)")
	flag.IntVar(&f.noise, "noise", 16, "background noise accesses per sample")
	flag.Uint64Var(&f.seed, "seed", 1, "seed")
	flag.IntVar(&f.workers, "workers", 1, "worker pool width for attack repetitions (1 = historical serial run; never affects results)")
	flag.Parse()
	if err := validateFlags(f); err != nil {
		fmt.Fprintf(os.Stderr, "attacksim: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := harness.New(harness.Options{Workers: 1})
	// runExp isolates one experiment: a panic in it becomes a structured
	// failure on the shared runner while the other experiments still run.
	runExp := func(name string, fn func() error) {
		_, _, _ = harness.RunCells(ctx, runner, name, []string{"-"}, func(context.Context, int) (struct{}, error) {
			return struct{}{}, fn()
		})
	}

	if f.exp == "fig8" || f.exp == "all" {
		runExp("fig8", func() error { return fig8(ctx, f.sets, f.runs, f.max, f.noise, f.workers, f.seed) })
	}
	if f.exp == "evictionset" || f.exp == "all" {
		runExp("evictionset", func() error { return evictionSets(f.sets, f.seed) })
	}

	if runner.Failed() {
		runner.WriteFailureSummary(os.Stderr)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "attacksim: interrupted")
		return 1
	}
	return 0
}

// designUnderAttack builds each attacked cache plus, for Fig 8, its
// occupancy-set size: equal to capacity for the deterministic LRU cache,
// twice capacity for the random-replacement designs (whose probe must
// churn the cache).
type designUnderAttack struct {
	name      string
	mk        func(seed uint64) cachemodel.LLC
	occupancy int
}

// mustLLC unwraps a checked constructor; attacksim's geometries are
// static, so a construction error is a programming bug.
func mustLLC(c cachemodel.LLC, err error) cachemodel.LLC {
	if err != nil {
		panic(err)
	}
	return c
}

// build returns a constructor of row r's design at sets sets per skew,
// indexed with PRINCE.
func build(r cachemodel.Row, sets int) func(seed uint64) cachemodel.LLC {
	return func(seed uint64) cachemodel.LLC {
		return mustLLC(r.Build(cachemodel.BuildOptions{Cores: 1, SetsPerCore: sets, Seed: seed}))
	}
}

// lru16 returns a constructor of the 16-way LRU cache that both tables
// attack, which matches SDIDs unlike the registry's SRRIP baseline.
func lru16(sets int) func(seed uint64) cachemodel.LLC {
	return func(seed uint64) cachemodel.LLC {
		return mustLLC(baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
	}
}

func fig8Designs(sets int) []designUnderAttack {
	capacity := sets * 16
	return []designUnderAttack{
		{name: "16-way SA", mk: lru16(sets), occupancy: capacity},
		{name: "Maya", mk: build(cachemodel.Maya, sets), occupancy: 2 * cachemodel.Maya.DataEntries(sets)},
		{
			name: "Fully associative",
			mk: func(seed uint64) cachemodel.LLC {
				return mustLLC(baseline.NewFullyAssociativeChecked(capacity, seed, true))
			},
			occupancy: 2 * capacity,
		},
	}
}

// evictionSetDesigns lists the eviction-set table's caches: the 16-way
// LRU cache, then the CEASER family, Mirage and Maya built from their
// rows.
func evictionSetDesigns(sets int) []designUnderAttack {
	ds := []designUnderAttack{{name: "Baseline 16-way", mk: lru16(sets)}}
	for _, r := range []cachemodel.Row{cachemodel.CEASER, cachemodel.CEASERS, cachemodel.ScatterCache, cachemodel.Mirage, cachemodel.Maya} {
		ds = append(ds, designUnderAttack{name: r.Name, mk: build(r, sets)})
	}
	return ds
}

func fig8(ctx context.Context, sets, runs, max, noise, workers int, seed uint64) error {
	t := report.NewTable(
		"Fig 8: occupancy attack — encryptions to distinguish two keys (median)",
		"design", "AES", "AES (normalized to FA)", "ModExp", "ModExp (normalized)")
	type row struct {
		name        string
		aes, modexp float64
	}
	// Pick two AES keys with contrasting reuse profiles, as the paper's
	// attacker does. Attack repetitions fan across the Monte-Carlo pool;
	// worker count never changes the medians.
	keyA, keyB := attack.FindContrastingAESKeys(64, 16, seed)
	var rows []row
	for _, d := range fig8Designs(sets) {
		aesN, err := attack.Trials{Runs: runs, Workers: workers, Seed: seed}.
			MedianDistinguishCtx(ctx, d.mk, func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
				va := attack.NewAESVictim(keyA, 1<<20, 16, attack.CacheToucher(c, 2))
				vb := attack.NewAESVictim(keyB, 1<<20, 16, attack.CacheToucher(c, 3))
				return va, vb
			}, d.occupancy, noise, max, 4.5)
		if err != nil {
			return err
		}
		mexN, err := attack.Trials{Runs: runs, Workers: workers, Seed: seed + 77}.
			MedianDistinguishCtx(ctx, d.mk, func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
				va := attack.NewModExpVictim(1, 64, 1<<21, attack.CacheToucher(c, 2))
				vb := attack.NewModExpVictim(4, 64, 1<<21, attack.CacheToucher(c, 3))
				return va, vb
			}, d.occupancy, noise, max, 4.5)
		if err != nil {
			return err
		}
		rows = append(rows, row{d.name, aesN, mexN})
	}
	fa := rows[len(rows)-1]
	for _, r := range rows {
		t.AddRow(r.name,
			fmt.Sprintf("%.0f", r.aes), fmt.Sprintf("%.3f", r.aes/fa.aes),
			fmt.Sprintf("%.0f", r.modexp), fmt.Sprintf("%.3f", r.modexp/fa.modexp))
	}
	t.Render(os.Stdout)
	fmt.Println()
	return nil
}

// evictionSets demonstrates why Maya/Mirage eliminate conflict attacks:
// eviction-set construction succeeds against conventional and
// CEASER-family designs (with SAEs as the tell-tale) and fails against the
// global-eviction designs.
func evictionSets(sets int, seed uint64) error {
	t := report.NewTable("Eviction-set construction across designs",
		"design", "found", "set size", "SAEs observed", "attacker accesses")
	for _, d := range evictionSetDesigns(sets) {
		res := attack.BuildEvictionSet(d.mk(seed), 0x12345, sets*64, 80_000_000, seed)
		t.AddRow(d.name, res.Found, res.SetSize, res.SAEsObserved, res.AccessesUsed)
	}
	t.Render(os.Stdout)
	fmt.Println()
	return nil
}
