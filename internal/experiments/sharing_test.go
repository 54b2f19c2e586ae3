package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"mayacache/internal/harness"
	"mayacache/internal/trace"
)

// keySet returns the keys of sims.
func keySet(sims []Sim) map[string]bool {
	keys := map[string]bool{}
	for _, s := range sims {
		keys[s.Key()] = true
	}
	return keys
}

// simCounts counts the simulations a sequence of sweeps lists. requested
// is what running every request as its own simulation costs: every
// sweep's own list, repeats included, plus each benchmark's alone run
// once per process (as a per-process alone-IPC memo would). distinct is
// what the shared runner simulates, single the distinct single-core
// simulations among them.
func simCounts(sweeps ...[]Sim) (requested, distinct, single int) {
	seen := map[string]bool{}
	alone := map[string]bool{}
	for _, sims := range sweeps {
		requested += len(sims)
		for i, s := range withAlone(sims) {
			k := s.Key()
			if i >= len(sims) {
				alone[k] = true
			}
			if !seen[k] {
				seen[k] = true
				distinct++
				if len(s.Benches) == 1 {
					single++
				}
			}
		}
	}
	return requested + len(alone), distinct, single
}

// TestSimulationSharing lists every mayasim experiment's simulations
// without running them, and pins the simulations figures share and the
// totals of `mayasim -experiment all` and `overheads -perf`.
func TestSimulationSharing(t *testing.T) {
	sc := Scale{WarmupInstr: 20_000, ROIInstr: 10_000, Seed: 1}
	fig9 := keySet(fig9Sims(sc))

	for _, b := range trace.SpecMemIntensive() {
		// Fig 4 at 3 reuse ways is Fig 9's Maya.
		if k := fig4Maya(3, b, sc).Key(); k != homSim(DesignMaya, b, 8, sc).Key() || !fig9[k] {
			t.Errorf("%s: Fig 4's 3-reuse-way Maya %q is not a Fig 9 simulation", b, k)
		}
		if k := fig4Maya(5, b, sc).Key(); fig9[k] {
			t.Errorf("%s: Fig 4's 5-reuse-way Maya %q collides with Fig 9", b, k)
		}
	}
	// The LLC-size sweep's x1.0 point is Fig 9's baseline and Maya; the
	// other factors are simulations of their own.
	for i, row := range llcSizePairs(sc, defaultSizeFactors) {
		for _, p := range row {
			shared := defaultSizeFactors[i] == 1.0
			if fig9[p.x.Key()] != shared || fig9[p.base.Key()] != shared {
				t.Errorf("LLC size x%g: %q / %q shared with Fig 9: %v / %v, want %v",
					defaultSizeFactors[i], p.x.Key(), p.base.Key(), fig9[p.x.Key()], fig9[p.base.Key()], shared)
			}
		}
	}
	// Every Table XI baseline is Fig 9's; no partition is.
	for _, row := range table11Pairs(sc) {
		for _, p := range row {
			if !fig9[p.base.Key()] || fig9[p.x.Key()] {
				t.Errorf("Table XI pair %q / %q: baseline shared %v, partition shared %v",
					p.x.Key(), p.base.Key(), fig9[p.base.Key()], fig9[p.x.Key()])
			}
		}
	}
	// Fig 1's baseline runs are the alone runs, which are grid cells.
	fig1 := keySet(fig1Sims(sc))
	for _, b := range memIntensive() {
		k := aloneSim(b, sc).Key()
		if !fig1[k] || k != GridCellKey(DesignBaseline, b, 1, sc) {
			t.Errorf("%s: alone run %q is not Fig 1's baseline grid cell", b, k)
		}
	}

	// mayasim -experiment all, in its order; Table VII re-reads Fig 9
	// and 10 and simulates nothing of its own.
	all := [][]Sim{
		fig1Sims(sc), fig9Sims(sc), fig10Sims(sc), fig4Sims(sc),
		pairSims(table11Pairs(sc)...), pairSims(fittingPairs(sc)),
		pairSims(corePairs(sc, defaultCoreCounts)), pairSims(llcSizePairs(sc, defaultSizeFactors)...),
	}
	requested, distinct, single := simCounts(all...)
	if requested != 486 || distinct != 361 || single != 44 {
		t.Errorf("mayasim all: %d requested / %d distinct (%d single-core) simulations, want 486 / 361 (44)",
			requested, distinct, single)
	}

	// overheads -perf: four designs against a shared baseline.
	requested, distinct, _ = simCounts(pairSims(table10Pairs(sc,
		[]Design{DesignMaya, DesignMirage, DesignMirageLite, DesignMayaISO})...))
	if requested != 135 || distinct != 90 {
		t.Errorf("overheads -perf: %d requested / %d distinct simulations, want 135 / 90", requested, distinct)
	}
}

// runCounter is a harness.Faults that counts how often each cell runs.
type runCounter struct {
	mu   sync.Mutex
	runs map[string]int
}

func (c *runCounter) PreRun(_ context.Context, key string) error {
	c.mu.Lock()
	c.runs[key]++
	c.mu.Unlock()
	return nil
}
func (*runCounter) PreSave(string, int) error { return nil }
func (*runCounter) OnSave(string, int) bool   { return false }

// TestSharedSimulationRunsOnce runs Fig 1's simulations and the core-count
// sweep's one-core pair on one runner. Both need perlbench alone on a
// one-core baseline: it simulates once, and both sweeps read the same
// value.
func TestSharedSimulationRunsOnce(t *testing.T) {
	sc := sweepScale()
	count := &runCounter{runs: map[string]int{}}
	r := harness.New(harness.Options{Workers: 2, Checkpoint: harness.NewMemCheckpoint(), Faults: count})
	first, err := runSims(context.Background(), r, fig1Sims(sc))
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSims(context.Background(), r, pairSims(corePairs(sc, []int{1})))
	if err != nil {
		t.Fatal(err)
	}
	shared := aloneSim("perlbench", sc).Key()
	if n := count.runs[simExperiment+"|"+shared]; n != 1 {
		t.Fatalf("shared simulation %q ran %d times, want 1", shared, n)
	}
	a, okA := first[shared]
	b, okB := second[shared]
	if !okA || !okB || !reflect.DeepEqual(a, b) {
		t.Fatalf("sweeps read different values for %q (ok %v/%v):\n%+v\n%+v", shared, okA, okB, a, b)
	}
	for k, n := range count.runs {
		if n != 1 {
			t.Errorf("%s ran %d times", k, n)
		}
	}
	if len(count.runs) != 41 {
		t.Errorf("%d simulations ran, want Fig 1's 40 plus one-core Maya", len(count.runs))
	}
}
