package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/harness"
	"mayacache/internal/trace"
)

// tiny keeps experiment tests fast; shapes are asserted loosely.
func tiny() Scale {
	return Scale{WarmupInstr: 200_000, ROIInstr: 100_000, Seed: 1}
}

// mustBuild constructs a registered design, failing the test on error.
func mustBuild(t testing.TB, d Design, opts LLCOptions) cachemodel.LLC {
	t.Helper()
	llc, err := NewLLCChecked(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return llc
}

func TestNewLLCAllDesigns(t *testing.T) {
	for _, d := range []Design{DesignBaseline, DesignMirage, DesignMirageLite, DesignMaya, DesignMayaISO} {
		g := mustBuild(t, d, LLCOptions{Cores: 1, Seed: 1, FastHash: true}).Geometry()
		if g.DataEntries <= 0 {
			t.Fatalf("%s: bad geometry %+v", d, g)
		}
	}
}

func TestNewLLCGeometryScaling(t *testing.T) {
	one := mustBuild(t, DesignMaya, LLCOptions{Cores: 1, Seed: 1, FastHash: true}).Geometry()
	eight := mustBuild(t, DesignMaya, LLCOptions{Cores: 8, Seed: 1, FastHash: true}).Geometry()
	if eight.DataEntries != 8*one.DataEntries {
		t.Fatalf("data entries do not scale with cores: %d vs 8x%d", eight.DataEntries, one.DataEntries)
	}
	// 8-core Maya must be the paper's 192K entries (12MB).
	if eight.DataEntries != 196608 {
		t.Fatalf("8-core Maya data entries = %d, want 196608", eight.DataEntries)
	}
}

func TestMayaOptionOverrides(t *testing.T) {
	llc, err := fig4Maya(7, "mcf", tiny()).llc()
	if err != nil {
		t.Fatal(err)
	}
	if g := llc.Geometry(); g.WaysPerSkew != 6+7+6 {
		t.Fatalf("ways per skew = %d, want 19", g.WaysPerSkew)
	}
	// The LLC-size sweep's half-size Maya halves the data store.
	half, err := llcSizePairs(tiny(), []float64{0.5})[0][0].x.llc()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := half.Geometry().DataEntries, mustBuild(t, DesignMaya, LLCOptions{Cores: 8, Seed: 1, FastHash: true}).Geometry().DataEntries/2; got != want {
		t.Fatalf("0.5x Maya data entries = %d, want %d", got, want)
	}
}

func TestRunMixDesignProducesWS(t *testing.T) {
	mix := homSim(DesignBaseline, "xz", 2, tiny())
	d, err := runSims(context.Background(), harness.New(harness.Options{Workers: 1}), []Sim{mix})
	if err != nil {
		t.Fatal(err)
	}
	ws, ok := d.ws(mix)
	if !ok {
		t.Fatal("weighted speedup missing after a completed run")
	}
	if ws <= 0 || ws > 2.1 {
		t.Fatalf("weighted speedup %v out of range for 2 cores", ws)
	}
	if d[mix.Key()].MPKI() < 0 {
		t.Fatalf("negative MPKI")
	}
}

// attemptCounter is a harness.Faults that injects nothing and counts the
// attempts at each cell key.
type attemptCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *attemptCounter) PreRun(_ context.Context, key string) error {
	c.mu.Lock()
	c.n[key]++
	c.mu.Unlock()
	return nil
}
func (*attemptCounter) PreSave(string, int) error { return nil }
func (*attemptCounter) OnSave(string, int) bool   { return false }

// TestAloneIPCMemoized checks that a benchmark's alone run, which every
// weighted speedup involving it reads, is simulated once per runner and
// served from the checkpoint to every later sweep.
func TestAloneIPCMemoized(t *testing.T) {
	attempts := &attemptCounter{n: map[string]int{}}
	r := harness.New(harness.Options{Workers: 1, Checkpoint: harness.NewMemCheckpoint(), Faults: attempts})
	alone := aloneSim("xz", tiny())
	a, err := runSims(context.Background(), r, []Sim{homSim(DesignBaseline, "xz", 2, tiny())})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSims(context.Background(), r, []Sim{homSim(DesignMaya, "xz", 2, tiny())})
	if err != nil {
		t.Fatal(err)
	}
	if ran, restored, _ := r.Stats(); ran != 3 || restored != 0 {
		t.Fatalf("ran %d and restored %d simulations, want 3 and none restored", ran, restored)
	}
	if len(attempts.n) != 3 || attempts.n["sim|"+alone.Key()] != 1 {
		t.Fatalf("attempts per simulation %v, want 3 simulations with the alone run attempted once", attempts.n)
	}
	for key, n := range attempts.n {
		if n != 1 {
			t.Fatalf("%s attempted %d times, want once", key, n)
		}
	}
	ipcA, ipcB := a[alone.Key()].Cores[0].IPC, b[alone.Key()].Cores[0].IPC
	if ipcA != ipcB {
		t.Fatalf("memoized alone IPC differs: %v vs %v", ipcA, ipcB)
	}
	if ipcA <= 0 {
		t.Fatalf("alone IPC %v", ipcA)
	}
}

func TestFig1ShapesAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rows, ok, err := Fig1Sweep(context.Background(), harness.New(harness.Options{}), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ok {
		if !ok[i] {
			t.Fatalf("Fig 1 row %d (%s) incomplete", i, rows[i].Bench)
		}
	}
	if len(rows) != 20 {
		t.Fatalf("%d Fig 1 rows, want 20", len(rows))
	}
	ab, _ := Fig1Average(rows)
	// The paper's headline observation: most LLC fills are dead.
	if ab < 60 {
		t.Fatalf("baseline average dead%% = %.1f, expected the >60%% regime even at tiny scale", ab)
	}
}

func TestSummarizeFig9(t *testing.T) {
	rows := []Fig9Row{
		{Bench: "a", Suite: "SPEC", NormMirage: 1.0, NormMaya: 1.1},
		{Bench: "b", Suite: "GAP", NormMirage: 0.9, NormMaya: 1.0},
	}
	sums := SummarizeFig9(rows)
	if len(sums) != 3 { // SPEC, GAP, ALL
		t.Fatalf("%d summaries", len(sums))
	}
	for _, s := range sums {
		if s.NormMaya <= 0 {
			t.Fatalf("bad summary %+v", s)
		}
	}
}

func TestTable7Aggregation(t *testing.T) {
	fig9 := []Fig9Row{{Bench: "a", Suite: "SPEC", MPKIBase: 10, MPKIMirage: 9, MPKIMaya: 11}}
	fig10 := []Fig10Row{
		{Mix: "M1", Bin: trace.BinLow, MPKIBase: 8, MPKIMirage: 8, MPKIMaya: 9},
		{Mix: "M15", Bin: trace.BinHigh, MPKIBase: 21, MPKIMirage: 21, MPKIMaya: 22},
	}
	rows := Table7(fig9, fig10)
	if len(rows) != 4 {
		t.Fatalf("%d Table VII rows, want 4", len(rows))
	}
	if rows[0].Baseline != 10 {
		t.Fatalf("homogeneous baseline MPKI %v", rows[0].Baseline)
	}
}

func TestPartitionLLCKinds(t *testing.T) {
	for _, k := range []string{"way", "set", "flex"} {
		llc := newPartitionLLC(k, 8, 1)
		if llc == nil {
			t.Fatalf("%s: nil", k)
		}
	}
}

func TestSortFig9(t *testing.T) {
	rows := []Fig9Row{
		{Bench: "pr", Suite: "GAP"},
		{Bench: "mcf", Suite: "SPEC"},
		{Bench: "bc", Suite: "GAP"},
		{Bench: "lbm", Suite: "SPEC"},
	}
	ok := []bool{false, true, true, true}
	SortFig9(rows, ok)
	var order []string
	for _, r := range rows {
		order = append(order, r.Bench)
	}
	if got := strings.Join(order, ","); got != "lbm,mcf,bc,pr" {
		t.Fatalf("order %s, want lbm,mcf,bc,pr", got)
	}
	// The completeness mask moves with its rows: only pr failed.
	for i, r := range rows {
		if ok[i] != (r.Bench != "pr") {
			t.Fatalf("row %d (%s): ok %v", i, r.Bench, ok[i])
		}
	}
}
