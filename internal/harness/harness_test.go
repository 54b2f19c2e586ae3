package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep substitutes instant backoff waits in tests.
func noSleep(opts Options) Options {
	opts.Sleep = func(context.Context, time.Duration) {}
	return opts
}

func keysN(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell=%d", i)
	}
	return keys
}

func TestRecoverConvertsPanics(t *testing.T) {
	err := Recover(func() error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic: boom", err)
	}
	if PanicStack(err) == nil {
		t.Fatal("no stack captured")
	}
	sentinel := errors.New("inner cause")
	err = Recover(func() error { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("panic value that is an error must unwrap; got %v", err)
	}
	if err := Recover(func() error { return nil }); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

func TestRunCellsIsolatesPanickingCell(t *testing.T) {
	r := New(noSleep(Options{Workers: 4}))
	vals, ok, err := RunCells(context.Background(), r, "exp", keysN(8),
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("injected cell failure")
			}
			return i * 10, nil
		})
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	for i := range vals {
		if i == 3 {
			if ok[3] {
				t.Fatal("panicking cell marked ok")
			}
			continue
		}
		if !ok[i] || vals[i] != i*10 {
			t.Fatalf("sibling cell %d: ok=%v val=%d", i, ok[i], vals[i])
		}
	}
	fails := r.Failures()
	if len(fails) != 1 {
		t.Fatalf("%d failures, want 1", len(fails))
	}
	f := fails[0]
	if f.Experiment != "exp" || f.Cell != "cell=3" || !strings.Contains(f.Err.Error(), "injected") {
		t.Fatalf("bad RunError: %+v", f)
	}
	if len(f.Stack) == 0 {
		t.Fatal("panic failure has no stack")
	}
	var sb strings.Builder
	r.WriteFailureSummary(&sb)
	if !strings.Contains(sb.String(), "cell=3") || !strings.Contains(sb.String(), "1 of 8") {
		t.Fatalf("summary missing cell: %q", sb.String())
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	var calls atomic.Int32
	r := New(noSleep(Options{Workers: 1, Retries: 3, Seed: 7}))
	vals, ok, err := RunCells(context.Background(), r, "exp", []string{"cell=0"},
		func(_ context.Context, i int) (string, error) {
			if calls.Add(1) <= 2 {
				return "", Transient(errors.New("flaky"))
			}
			return "done", nil
		})
	if err != nil || !ok[0] || vals[0] != "done" {
		t.Fatalf("retry did not recover: err=%v ok=%v vals=%v", err, ok, vals)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 3", calls.Load())
	}
	if r.Failed() {
		t.Fatalf("runner recorded failures: %v", r.Failures())
	}
}

func TestTransientRetryExhaustion(t *testing.T) {
	r := New(noSleep(Options{Workers: 1, Retries: 2}))
	_, ok, _ := RunCells(context.Background(), r, "exp", []string{"cell=0"},
		func(context.Context, int) (int, error) {
			return 0, Transient(errors.New("always flaky"))
		})
	if ok[0] {
		t.Fatal("exhausted cell marked ok")
	}
	fails := r.Failures()
	if len(fails) != 1 || fails[0].Attempts != 3 {
		t.Fatalf("failures = %+v, want one with 3 attempts", fails)
	}
	if !IsTransient(fails[0].Err) {
		t.Fatal("final error lost its transient marker")
	}
}

func TestNonTransientNotRetried(t *testing.T) {
	var calls atomic.Int32
	r := New(noSleep(Options{Workers: 1, Retries: 5}))
	_, _, _ = RunCells(context.Background(), r, "exp", []string{"cell=0"},
		func(context.Context, int) (int, error) {
			calls.Add(1)
			return 0, errors.New("hard failure")
		})
	if calls.Load() != 1 {
		t.Fatalf("non-transient error retried %d times", calls.Load())
	}
}

func TestCellTimeout(t *testing.T) {
	r := New(noSleep(Options{Workers: 1, CellTimeout: 10 * time.Millisecond}))
	_, ok, _ := RunCells(context.Background(), r, "exp", []string{"cell=0"},
		func(ctx context.Context, _ int) (int, error) {
			<-ctx.Done() // cooperative simulator: observes the deadline
			return 0, ctx.Err()
		})
	if ok[0] {
		t.Fatal("timed-out cell marked ok")
	}
	fails := r.Failures()
	if len(fails) != 1 || !errors.Is(fails[0].Err, context.DeadlineExceeded) {
		t.Fatalf("failures = %+v, want DeadlineExceeded", fails)
	}
}

func TestParentCancellationIsNotAFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int32
	r := New(noSleep(Options{Workers: 1}))
	_, ok, err := RunCells(ctx, r, "exp", keysN(6),
		func(ctx context.Context, i int) (int, error) {
			if completed.Add(1) == 3 {
				cancel() // simulate Ctrl-C after the third cell starts
				return 0, ctx.Err()
			}
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells returned %v, want Canceled", err)
	}
	if r.Failed() {
		t.Fatalf("cancelled cells recorded as failures: %v", r.Failures())
	}
	done := 0
	for _, o := range ok {
		if o {
			done++
		}
	}
	if done == 0 || done >= 6 {
		t.Fatalf("expected partial completion, got %d/6", done)
	}
}

// A cancellation during a transient failure's backoff leaves the cell
// unfinished, not failed: its retry budget is not spent.
func TestCancelledBackoffIsNotAFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workers: 1, Retries: 3}
	opts.Sleep = func(context.Context, time.Duration) { cancel() }
	r := New(opts)
	_, ok, err := RunCells(ctx, r, "exp", []string{"cell=0"},
		func(context.Context, int) (int, error) {
			return 0, Transient(errors.New("flaky"))
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells returned %v, want Canceled", err)
	}
	if ok[0] || r.Failed() {
		t.Fatalf("ok=%v failures=%v, want the cell neither done nor failed", ok[0], r.Failures())
	}
}

func TestRunCellsSkipsCheckpointedCells(t *testing.T) {
	ck := NewMemCheckpoint()
	if err := ck.Record("exp|cell=1", 111); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	r := New(noSleep(Options{Workers: 1, Checkpoint: ck}))
	vals, ok, err := RunCells(context.Background(), r, "exp", keysN(3),
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i * 100, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("%d cells recomputed, want 2", ran.Load())
	}
	if !ok[1] || vals[1] != 111 {
		t.Fatalf("checkpointed cell not restored: ok=%v val=%d", ok[1], vals[1])
	}
	if ck.Len() != 3 {
		t.Fatalf("checkpoint holds %d cells, want 3", ck.Len())
	}
	_, restored, _ := r.Stats()
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
}

// TestFailedCellRunsOncePerRunner: sweeps sharing a runner and a
// checkpoint share cells, as mayasim's figures do. A cell that failed in
// the first sweep is left incomplete by the second without a new attempt
// or a second failure, and the summary counts each distinct cell once,
// none of them restored.
func TestFailedCellRunsOncePerRunner(t *testing.T) {
	r := New(noSleep(Options{Workers: 1, Checkpoint: NewMemCheckpoint()}))
	calls := map[string]int{}
	run := func(keys []string) []bool {
		_, ok, err := RunCells(context.Background(), r, "exp", keys,
			func(_ context.Context, i int) (int, error) {
				calls[keys[i]]++
				if keys[i] == "cell=1" {
					return 0, errors.New("persistent failure")
				}
				return i, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	run(keysN(3))
	ok := run([]string{"cell=1", "cell=2", "cell=3"})
	if ok[0] || !ok[1] || !ok[2] {
		t.Fatalf("second sweep completion %v, want the failed cell alone incomplete", ok)
	}
	for key, n := range calls {
		if n != 1 {
			t.Errorf("%s run %d times, want 1", key, n)
		}
	}
	if fails := r.Failures(); len(fails) != 1 || fails[0].Cell != "cell=1" {
		t.Fatalf("failures %v, want cell=1 once", fails)
	}
	if ran, restored, failed := r.Stats(); ran != 4 || restored != 0 || failed != 1 {
		t.Fatalf("stats ran=%d restored=%d failed=%d, want 4, 0 and 1", ran, restored, failed)
	}
	var sb strings.Builder
	r.WriteFailureSummary(&sb)
	if !strings.HasPrefix(sb.String(), "FAILURE SUMMARY: 1 of 4 cell(s) failed (0 restored from checkpoint)\n") {
		t.Fatalf("summary:\n%s", sb.String())
	}
}

// preRunFunc is a Faults fake with only a pre-run site.
type preRunFunc func(key string) error

func (f preRunFunc) PreRun(_ context.Context, key string) error { return f(key) }
func (preRunFunc) PreSave(string, int) error                    { return nil }
func (preRunFunc) OnSave(string, int) bool                      { return false }

func TestPreRunHookInjectsFailures(t *testing.T) {
	r := New(noSleep(Options{Workers: 1, Faults: preRunFunc(func(key string) error {
		if strings.Contains(key, "cell=2") {
			panic("injected by hook")
		}
		return nil
	})}))
	_, ok, _ := RunCells(context.Background(), r, "exp", keysN(4),
		func(_ context.Context, i int) (int, error) { return i, nil })
	if ok[2] {
		t.Fatal("hooked cell completed")
	}
	for _, i := range []int{0, 1, 3} {
		if !ok[i] {
			t.Fatalf("sibling %d did not complete", i)
		}
	}
	if len(r.Failures()) != 1 {
		t.Fatalf("failures: %v", r.Failures())
	}
}

func TestParallelForRecoversAndJoins(t *testing.T) {
	err := ParallelFor(context.Background(), 3, 5, func(_ context.Context, i int) error {
		if i == 1 {
			panic("pf boom")
		}
		if i == 4 {
			return errors.New("pf err")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "pf boom") || !strings.Contains(err.Error(), "pf err") {
		t.Fatalf("joined error = %v", err)
	}
	if err := ParallelFor(context.Background(), 2, 4, func(context.Context, int) error { return nil }); err != nil {
		t.Fatalf("clean ParallelFor: %v", err)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	d0 := backoff(1, "cell", 0)
	d2 := backoff(1, "cell", 2)
	d6 := backoff(1, "cell", 6)
	if d0 < backoffBase || d0 >= 2*backoffBase {
		t.Fatalf("first backoff %v outside [base, 2*base)", d0)
	}
	if d2 < 4*backoffBase || d2 >= 5*backoffBase {
		t.Fatalf("third backoff %v outside [4*base, 5*base)", d2)
	}
	// retry 6 would be 64*base = 3.2s; capped at 2s plus jitter < base.
	if d6 < backoffCap || d6 >= backoffCap+backoffBase {
		t.Fatalf("capped backoff %v outside [cap, cap+base)", d6)
	}
}

// TestRetryRule: only transient failures retry, within the budget, after
// the pure backoff of the failed attempt.
func TestRetryRule(t *testing.T) {
	flaky := Transient(errors.New("flaky"))
	cases := []struct {
		attempt, retries int
		err              error
		retry            bool
	}{
		{1, 2, flaky, true},
		{2, 2, flaky, true},
		{3, 2, flaky, false}, // budget spent
		{1, 0, flaky, false},
		{1, 2, errors.New("hard"), false},
		{1, 2, nil, false},
	}
	for _, c := range cases {
		d, retry := Retry(7, "exp|cell=0", c.attempt, c.retries, c.err)
		if retry != c.retry {
			t.Errorf("Retry(attempt %d, retries %d, %v) retry = %v, want %v", c.attempt, c.retries, c.err, retry, c.retry)
		}
		if retry && d != backoff(7, "exp|cell=0", c.attempt-1) {
			t.Errorf("Retry(attempt %d) delay %v, want the backoff of retry %d", c.attempt, d, c.attempt-1)
		}
	}
}

// TestBackoffPureFunction proves the retry schedule contract: the exact
// delay before attempt k of a cell depends only on (seed, key, k) — not
// on call order, other cells' retries, or concurrency — so a resumed or
// distributed sweep reproduces the serial schedule bit for bit.
func TestBackoffPureFunction(t *testing.T) {
	const seed = 42
	keys := []string{"fig9|bench=mcf|seed=1", "fig9|bench=lbm|seed=1", "grid|design=Maya|bench=mcf|seed=3"}

	// Reference schedule, computed in natural order.
	want := map[string][]time.Duration{}
	for _, k := range keys {
		for a := 0; a < 6; a++ {
			want[k] = append(want[k], backoff(seed, k, a))
		}
	}
	// Recomputed in reversed, interleaved order: every delay must match.
	for a := 5; a >= 0; a-- {
		for i := len(keys) - 1; i >= 0; i-- {
			if got := backoff(seed, keys[i], a); got != want[keys[i]][a] {
				t.Fatalf("Backoff(%q, %d) = %v on re-evaluation, want %v", keys[i], a, got, want[keys[i]][a])
			}
		}
	}
	// And concurrently, from many goroutines at once.
	var wg sync.WaitGroup
	errs := make(chan error, len(keys)*6)
	for _, k := range keys {
		for a := 0; a < 6; a++ {
			wg.Add(1)
			go func(k string, a int) {
				defer wg.Done()
				if got := backoff(seed, k, a); got != want[k][a] {
					errs <- fmt.Errorf("concurrent Backoff(%q, %d) = %v, want %v", k, a, got, want[k][a])
				}
			}(k, a)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Distinct keys and attempts produce distinct jitter streams: the three
	// keys' first delays should not all coincide.
	if want[keys[0]][0] == want[keys[1]][0] && want[keys[1]][0] == want[keys[2]][0] {
		t.Fatalf("jitter identical across keys: %v", want[keys[0]][0])
	}
	// The retry rule's schedule equals the pure function (same seed).
	if got, _ := Retry(seed, keys[0], 3, 5, Transient(errors.New("x"))); got != want[keys[0]][2] {
		t.Fatalf("Retry delay %v, want %v", got, want[keys[0]][2])
	}
}

func TestFailureOrderingIsStable(t *testing.T) {
	r := New(noSleep(Options{Workers: 8}))
	_, _, _ = RunCells(context.Background(), r, "exp", keysN(10),
		func(_ context.Context, i int) (int, error) {
			return 0, fmt.Errorf("fail %d", i)
		})
	fails := r.Failures()
	if len(fails) != 10 {
		t.Fatalf("%d failures", len(fails))
	}
	for i := 1; i < len(fails); i++ {
		if fails[i-1].Cell > fails[i].Cell {
			t.Fatalf("failures unsorted: %q > %q", fails[i-1].Cell, fails[i].Cell)
		}
	}
}
