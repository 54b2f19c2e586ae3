// Package harness is the resilient sweep-execution layer for the
// experiment drivers. The paper's evaluation is reproduced as long
// multi-seed, multi-configuration sweeps; a single panic anywhere in the
// simulator previously tore down an entire `mayasim -experiment all` run
// with no partial results. The harness turns each sweep cell — one
// (mix, design, seed) simulation — into an isolated unit of work:
//
//   - panics inside a cell are recovered and converted into structured
//     RunErrors (experiment, cell key, stack) instead of killing the
//     process; sibling cells keep running;
//   - every cell runs under a context.Context, so Ctrl-C cancellation and
//     per-cell timeouts propagate through the bounded worker pool;
//   - cells that fail with a transient error (see Transient) are retried
//     under Retry's capped exponential backoff, jittered from internal/rng
//     so retry schedules are deterministic given the harness seed;
//   - completed cells are appended to a JSONL checkpoint file, so an
//     interrupted sweep resumes without recomputing them — the values are
//     JSON round-tripped both when written and when skipped, keeping
//     resumed and uninterrupted runs byte-identical;
//   - aggregation degrades gracefully: RunCells returns whatever cells
//     completed plus a completeness mask, and the Runner carries a
//     structured failure summary for the driver to render (and to exit
//     nonzero on).
//
// The package is deliberately simulator-agnostic: cells are closures and
// cell values are anything JSON-marshalable. The fleet worker and the
// session server run their cells through the same attempt (RunAttempt)
// and retry rule (Retry).
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"mayacache/internal/snapshot"
)

// RunError describes one failed sweep cell. It is the harness's error
// taxonomy's terminal record: whatever went wrong inside the cell — a
// panic (including invariant.Violation from mayacheck builds), a returned
// error, or a per-cell timeout — is wrapped here with enough context to
// re-run the cell in isolation.
type RunError struct {
	// Experiment is the cell namespace the sweep ran under (e.g. "sim"
	// for mayasim's simulations, "grid" for the fleet's).
	Experiment string
	// Cell identifies the failed cell (its checkpoint key suffix, e.g.
	// "design=Maya|bench=mcf|cores=8|w=2000000|roi=1000000|seed=1").
	Cell string
	// Attempts is how many times the cell was tried (1 + retries).
	Attempts int
	// Err is the underlying failure. Panics are wrapped as
	// "panic: <value>" errors; timeouts unwrap to context.DeadlineExceeded.
	Err error
	// Stack is the goroutine stack at the recovery point when the failure
	// was a panic; nil for ordinary errors.
	Stack []byte
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("%s cell %s failed after %d attempt(s): %v", e.Experiment, e.Cell, e.Attempts, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// transientError marks an error as retryable. Injected transient faults
// and other recoverable conditions wrap themselves with Transient so the
// harness retries the cell instead of failing it.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so IsTransient reports true; the harness retries
// cells failing with transient errors (up to Options.Retries). A nil err
// returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is (or wraps) a transient error.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// panicError carries a recovered panic value as an error. The original
// value is preserved: if it was an error (e.g. invariant.Violation), it
// unwraps to it.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// Unwrap exposes panic values that are themselves errors.
func (e *panicError) Unwrap() error {
	if err, ok := e.value.(error); ok {
		return err
	}
	return nil
}

// Recover runs fn and converts a panic into a returned error carrying the
// panic value and stack. It is the single recovery wrapper every
// harness-routed run funnels through; constructor-geometry panics in the
// simulator packages (core, mirage, baseline, cachesim, trace, ...) stay
// panics at their sites and become RunErrors here.
func Recover(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{value: r, stack: debug.Stack()}
		}
	}()
	return fn()
}

// PanicStack returns the recovery-point stack if err came from a recovered
// panic, or nil.
func PanicStack(err error) []byte {
	var p *panicError
	if errors.As(err, &p) {
		return p.stack
	}
	return nil
}

// DefaultWorkers is the pool width used wherever a width is left at zero
// (Options.Workers, ParallelFor, mc.ForEach, the session server): one
// worker per CPU the scheduler may run Go code on, GOMAXPROCS. A width
// bounds wall clock only, never results.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Options configures a Runner.
type Options struct {
	// Workers bounds cell parallelism. 0 selects DefaultWorkers; 1 runs
	// cells serially (deterministic order).
	Workers int
	// CellTimeout is the per-cell deadline; 0 disables it. A timed-out
	// cell fails with context.DeadlineExceeded (wrapped in a RunError);
	// the simulator observes the cancellation cooperatively via
	// cachesim.Run, so the cell's goroutine exits promptly.
	CellTimeout time.Duration
	// Retries is how many times a cell failing with a Transient error is
	// re-run (total attempts = Retries+1), after the delays Retry gives.
	// Non-transient failures are never retried.
	Retries int
	// Seed drives the backoff jitter (see Retry: every delay is a pure
	// function of Seed, the cell key, and the attempt number).
	Seed uint64
	// Checkpoint, when non-nil, is consulted before running a cell and
	// appended to after each completed cell.
	Checkpoint *Checkpoint
	// Faults, when non-nil, is consulted at every attempt's fault sites
	// (see Attempt) to fail, stall, or kill cells deterministically.
	Faults Faults
	// Sleep is the backoff sleeper; nil selects Sleep. Tests substitute
	// instant sleeps.
	Sleep func(ctx context.Context, d time.Duration)

	// SnapshotDir, when non-empty, enables mid-cell snapshot/resume: each
	// cell gets a durable snapshot.Cell file under this directory
	// (attached to the cell's context for the experiment layer), periodic
	// auto-snapshots every SnapshotEvery simulator steps, and a deadline
	// stop when SnapshotTrigger fires. A cell that stops with
	// snapshot.ErrStopped is not a failure: its state stays in its cell
	// file, named by the cell key (snapshot.CellFileName), and the next
	// sweep over the same SnapshotDir resumes it mid-run.
	SnapshotDir string
	// SnapshotEvery is the periodic auto-snapshot cadence in simulator
	// steps (0 disables periodic saves; deadline saves still fire).
	SnapshotEvery uint64
	// SnapshotTrigger, when fired, makes running cells save their state
	// and stop; cells not yet launched are skipped (left resumable).
	SnapshotTrigger *snapshot.Trigger
}

// Runner executes sweeps and accumulates their failures. One Runner is
// shared across all the sweeps of a driver invocation so the final
// failure summary covers the whole run: sweeps that list the same cell
// count it once, and a cell that failed is not attempted again.
type Runner struct {
	opts Options

	mu     sync.Mutex
	errs   []*RunError
	seen   map[string]bool // cell keys met; true when the first sighting was a checkpoint hit
	failed map[string]bool // cell keys with a RunError
	skips  int             // seen keys that are true
}

// New builds a Runner. Zero-valued fields of opts select defaults.
func New(opts Options) *Runner {
	if opts.Sleep == nil {
		opts.Sleep = Sleep
	}
	return &Runner{opts: opts, seen: map[string]bool{}, failed: map[string]bool{}}
}

// Sleep waits d or until ctx ends.
func Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// see counts the first sighting of a cell key, as restored when it was a
// checkpoint hit; later sightings count nothing.
func (r *Runner) see(key string, restored bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.seen[key]; ok {
		return
	}
	r.seen[key] = restored
	if restored {
		r.skips++
	}
}

// record appends a cell failure and remembers its key.
func (r *Runner) record(e *RunError) {
	r.mu.Lock()
	r.errs = append(r.errs, e)
	r.failed[e.Experiment+"|"+e.Cell] = true
	r.mu.Unlock()
}

// hasFailed reports whether the cell key already has a RunError.
func (r *Runner) hasFailed(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed[key]
}

// Failures returns the accumulated cell failures, sorted by experiment
// then cell key (stable across worker schedules).
func (r *Runner) Failures() []*RunError {
	r.mu.Lock()
	out := make([]*RunError, len(r.errs))
	copy(out, r.errs)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// Failed reports whether any cell failed.
func (r *Runner) Failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.errs) > 0
}

// Stats returns (cells run, cells restored from checkpoint, failures),
// each cell counted once however many sweeps list it. A cell counts as
// restored only when its first sighting was a checkpoint hit.
func (r *Runner) Stats() (ran, restored, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seen) - r.skips, r.skips, len(r.errs)
}

// WriteFailureSummary renders the structured failure summary. Stacks are
// included only for panic failures, truncated to their first frames.
func (r *Runner) WriteFailureSummary(w io.Writer) {
	fails := r.Failures()
	ran, restored, _ := r.Stats()
	fmt.Fprintf(w, "FAILURE SUMMARY: %d of %d cell(s) failed (%d restored from checkpoint)\n",
		len(fails), ran+restored, restored)
	for _, f := range fails {
		fmt.Fprintf(w, "  [%s] cell %s: %v (attempts: %d)\n", f.Experiment, f.Cell, f.Err, f.Attempts)
		if len(f.Stack) > 0 {
			fmt.Fprintf(w, "%s\n", indentStack(f.Stack, 24))
		}
	}
}

// indentStack trims a debug.Stack dump to at most maxLines and indents it.
func indentStack(stack []byte, maxLines int) string {
	lines := 0
	end := len(stack)
	for i, b := range stack {
		if b == '\n' {
			lines++
			if lines == maxLines {
				end = i
				break
			}
		}
	}
	out := make([]byte, 0, end+4*lines)
	out = append(out, ' ', ' ', ' ', ' ')
	for _, b := range stack[:end] {
		out = append(out, b)
		if b == '\n' {
			out = append(out, ' ', ' ', ' ', ' ')
		}
	}
	return string(out)
}

// ParallelFor runs f(ctx, i) for i in [0, n) on at most workers
// goroutines, recovering panics into errors. It stops launching new work
// once ctx is cancelled (in-flight calls observe ctx cooperatively) and
// returns the joined errors of all failed iterations plus ctx.Err() when
// cancelled. It is the bounded pool underneath RunCells, exported for
// drivers (multi-seed statistics) that need raw parallelism with panic
// isolation but no checkpointing.
func ParallelFor(ctx context.Context, workers, n int, f func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			i := i
			errs[i] = Recover(func() error { return f(ctx, i) })
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = Recover(func() error { return f(ctx, i) })
			}(i)
		}
		wg.Wait()
	}
	errs = append(errs, ctx.Err())
	return errors.Join(errs...)
}

// RunCells executes one sweep: len(keys) cells, where cell i is identified
// by experiment+"|"+keys[i] and produced by run(ctx, i). It returns the
// cell values and a mask of which cells completed. For each cell it
//
//  1. restores the value from the checkpoint if present (no recompute);
//  2. otherwise runs it in the bounded pool under panic recovery, the
//     per-cell timeout, and transient-error retry with backoff;
//  3. on success, appends the JSON round-tripped value to the checkpoint;
//  4. on failure, records a RunError on the Runner.
//
// A cell that already failed on this Runner, in this sweep or an earlier
// one, is left incomplete without a new attempt or a second RunError.
// Cells cancelled by the parent context are neither completed nor
// recorded as failures — they are simply missing from the mask, and a
// later resume recomputes exactly them. RunCells returns ctx.Err() when
// the parent context was cancelled, else nil.
func RunCells[T any](ctx context.Context, r *Runner, experiment string, keys []string, run func(ctx context.Context, i int) (T, error)) ([]T, []bool, error) {
	out := make([]T, len(keys))
	ok := make([]bool, len(keys))
	_ = ParallelFor(ctx, r.opts.Workers, len(keys), func(ctx context.Context, i int) error {
		key := experiment + "|" + keys[i]
		if r.hasFailed(key) {
			return nil
		}
		if r.opts.Checkpoint != nil {
			if hit, err := r.opts.Checkpoint.Lookup(key, &out[i]); err != nil {
				r.see(key, false)
				r.record(&RunError{Experiment: experiment, Cell: keys[i], Attempts: 1,
					Err: fmt.Errorf("checkpoint entry unusable: %w", err)})
				return nil
			} else if hit {
				ok[i] = true
				r.see(key, true)
				return nil
			}
		}
		// A fired deadline trigger means the sweep is shutting down:
		// leave unstarted cells for the resumed sweep instead of racing
		// the shutdown.
		if r.opts.SnapshotTrigger.Fired() {
			return nil
		}
		r.see(key, false)
		res, attempts := runOne(ctx, r, key, func(cctx context.Context) (T, error) { return run(cctx, i) })
		fail := func(err error) {
			r.record(&RunError{Experiment: experiment, Cell: keys[i], Attempts: attempts,
				Err: err, Stack: PanicStack(err)})
		}
		switch res.Outcome {
		case Cancelled, Stopped:
			// Not failed: a resumed sweep recomputes a cancelled cell, and
			// continues a stopped one from its cell file, found by name.
			return nil
		case Failed, FailedTransient:
			fail(res.Err)
			return nil
		}
		// JSON round-trip the value through the checkpoint encoding even
		// when checkpointing is off, so resumed and fresh runs render
		// byte-identically.
		rt, err := roundTrip(res.Value)
		if err != nil {
			fail(fmt.Errorf("cell value not checkpointable: %w", err))
			return nil
		}
		if r.opts.Checkpoint != nil {
			if err := r.opts.Checkpoint.Record(key, rt); err != nil {
				fail(fmt.Errorf("checkpoint write failed: %w", err))
				return nil
			}
		}
		if res.Cell != nil {
			// The checkpoint now holds the cell's value; its mid-run
			// state file is obsolete.
			if err := res.Cell.Discard(); err != nil {
				fail(err)
				return nil
			}
		}
		out[i] = rt
		ok[i] = true
		return nil
	})
	return out, ok, ctx.Err()
}

// runOne runs a cell's attempts until one succeeds, stops, or fails in a
// way Retry does not retry, sleeping out the backoff in between. It
// returns the last attempt's result and the number of attempts.
func runOne[T any](ctx context.Context, r *Runner, key string, run func(ctx context.Context) (T, error)) (Result[T], int) {
	a := Attempt{Key: key, Deadline: r.opts.CellTimeout, Faults: r.opts.Faults}
	if r.opts.SnapshotDir != "" {
		a.Path = filepath.Join(r.opts.SnapshotDir, snapshot.CellFileName(key))
		a.Every, a.Trigger = r.opts.SnapshotEvery, r.opts.SnapshotTrigger
	}
	for attempts := 1; ; attempts++ {
		res := RunAttempt(ctx, a, run)
		delay, retry := Retry(r.opts.Seed, key, attempts, r.opts.Retries, res.Err)
		if res.Outcome != FailedTransient || !retry || ctx.Err() != nil {
			return res, attempts
		}
		r.opts.Sleep(ctx, delay)
		// A cancellation that arrived mid-backoff must not buy the cell one
		// more full attempt: surface the last failure now.
		if ctx.Err() != nil {
			return res, attempts
		}
	}
}
