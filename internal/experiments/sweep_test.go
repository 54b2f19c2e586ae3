package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mayacache/internal/faults"
	"mayacache/internal/harness"
)

// sweepScale is small enough that each cell simulates in well under a
// second; the sweeps exercised here use 1- and 2-core mixes only.
func sweepScale() Scale {
	return Scale{WarmupInstr: 60_000, ROIInstr: 30_000, Seed: 1}
}

func TestSweepResumeMatchesFreshRun(t *testing.T) {
	sc := sweepScale()
	counts := []int{1, 2, 4}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Interrupted run: the parent context is cancelled once the first two
	// simulations (the 1-core baseline and Maya, which complete row 0)
	// have completed, abandoning the rest.
	cp1, err := harness.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int32
	r1 := harness.New(harness.Options{Workers: 1, Checkpoint: cp1, Faults: preRun(func() error {
		if atomic.AddInt32(&calls, 1) > 2 {
			cancel()
			return context.Canceled
		}
		return nil
	})})
	_, ok1, err := CoreCountSweep(ctx1, r1, sc, counts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if r1.Failed() {
		t.Fatalf("cancellation recorded as failure: %v", r1.Failures())
	}
	if !ok1[0] || ok1[1] || ok1[2] {
		t.Fatalf("completion mask after interrupt: %v", ok1)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: restores row 0's simulations from the checkpoint and
	// computes the rest.
	cp2, err := harness.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 2 {
		t.Fatalf("checkpoint holds %d simulations, want 2", cp2.Len())
	}
	r2 := harness.New(harness.Options{Workers: 1, Checkpoint: cp2})
	resumed, ok2, err := CoreCountSweep(context.Background(), r2, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ok2 {
		if !ok2[i] {
			t.Fatalf("resumed cell %d incomplete", i)
		}
	}
	if _, restored, failed := r2.Stats(); restored != 2 || failed != 0 {
		t.Fatalf("resume stats: restored=%d failed=%d", restored, failed)
	}

	// Uninterrupted reference run, no checkpoint at all.
	r3 := harness.New(harness.Options{Workers: 1})
	fresh, ok3, err := CoreCountSweep(context.Background(), r3, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ok3 {
		if !ok3[i] {
			t.Fatalf("fresh cell %d incomplete", i)
		}
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed rows diverge from fresh run:\n%+v\nvs\n%+v", resumed, fresh)
	}
}

// preRun is a harness.Faults fake with only a pre-run site.
type preRun func() error

func (f preRun) PreRun(context.Context, string) error { return f() }
func (preRun) PreSave(string, int) error              { return nil }
func (preRun) OnSave(string, int) bool                { return false }

func TestSweepIsolatesInjectedFault(t *testing.T) {
	sc := sweepScale()
	set, err := faults.Parse([]string{"panic:cores=2"})
	if err != nil {
		t.Fatal(err)
	}
	r := harness.New(harness.Options{Workers: 1, Faults: set})
	rows, ok, err := CoreCountSweep(context.Background(), r, sc, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !ok[0] || ok[1] || !ok[2] {
		t.Fatalf("completion mask %v, want only cores=2 failed", ok)
	}
	if rows[0].NormMaya <= 0 || rows[2].NormMaya <= 0 {
		t.Fatalf("sibling cells did not produce results: %+v", rows)
	}
	// Row cores=2 reads two simulations, the baseline and Maya at two
	// cores; each fails on its own, and nothing else does.
	fails := r.Failures()
	if len(fails) != 2 {
		t.Fatalf("%d failures, want 2: %v", len(fails), fails)
	}
	for i, design := range []Design{DesignBaseline, DesignMaya} {
		f := fails[i]
		if f.Experiment != simExperiment || !strings.HasPrefix(f.Cell, "design="+string(design)+"|") ||
			!strings.Contains(f.Cell, "|cores=2|") {
			t.Fatalf("failure %d misattributed: %+v", i, f)
		}
		if !errors.Is(f.Err, faults.ErrInjected) {
			t.Fatalf("failure does not unwrap to the injected fault: %v", f.Err)
		}
		if len(f.Stack) == 0 {
			t.Fatal("panic failure carries no stack")
		}
	}
}

func TestSweepKeysEmbedScale(t *testing.T) {
	// A checkpoint taken at one scale must never satisfy lookups at
	// another: the cell keys embed warmup/roi/seed.
	sc := sweepScale()
	cp := harness.NewMemCheckpoint()
	r := harness.New(harness.Options{Workers: 1, Checkpoint: cp})
	if _, _, err := CoreCountSweep(context.Background(), r, sc, []int{1}); err != nil {
		t.Fatal(err)
	}
	keys := cp.Keys()
	want := []string{
		"sim|design=Baseline|bench=perlbench|cores=1|w=60000|roi=30000|seed=1",
		"sim|design=Maya|bench=perlbench|cores=1|w=60000|roi=30000|seed=1",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %q, want %q", keys, want)
	}

	other := sc
	other.Seed = 2
	r2 := harness.New(harness.Options{Workers: 1, Checkpoint: cp})
	if _, _, err := CoreCountSweep(context.Background(), r2, other, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, restored, _ := r2.Stats(); restored != 0 {
		t.Fatalf("checkpoint crossed scales: %d restored", restored)
	}
	if cp.Len() != 4 {
		t.Fatalf("checkpoint holds %d simulations, want 2 per scale", cp.Len())
	}
}
