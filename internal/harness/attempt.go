package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// Faults is the fault-injection surface an attempt consults, one method
// per site (faults.Set implements it; tests pass fakes). Key is the full
// cell key; saves counts the attempt's durable saves from 1.
type Faults interface {
	// PreRun runs before the cell, inside the attempt's panic recovery
	// and under its deadline: it may panic, fail (possibly Transient),
	// or stall until ctx ends.
	PreRun(ctx context.Context, key string) error
	// PreSave runs before a durable save; an error fails that save.
	PreSave(key string, saves int) error
	// OnSave runs after a durable save and reports whether the process
	// must be killed now.
	OnSave(key string, saves int) bool
}

// Attempt describes one attempt at a cell: where its durable state
// lives, how it is bounded, and which faults it meets. It is the single
// execution path under the sweep harness (RunCells), the fleet worker,
// and the session server; each maps the Result onto its own record.
type Attempt struct {
	// Key is the full cell key: faults match on it, and the state file
	// is bound to it.
	Key string
	// Path is the cell's state file, opened (or resumed) and attached to
	// the run's context; "" runs without snapshots.
	Path string
	// Every is the periodic save cadence in simulator steps (0 saves
	// only when Trigger fires); Trigger makes the running cell save and
	// stop.
	Every   uint64
	Trigger *snapshot.Trigger
	// OnSave, when non-nil, runs after every durable save, before the
	// save-site faults, on the cell's writer goroutine (see
	// snapshot.CellSpec.OnSave).
	OnSave func(saves int)
	// Deadline bounds the attempt, pre-run faults included (0: none).
	Deadline time.Duration
	// Faults, when non-nil, is consulted at each site; Kill ends the
	// process when a save-site fault fires (nil: KillProcess).
	Faults Faults
	Kill   func()
}

// Outcome classifies how an attempt ended.
type Outcome int

const (
	Succeeded       Outcome = iota // the cell returned its value
	Stopped                        // state saved on the trigger (snapshot.ErrStopped); resume later
	Cancelled                      // the parent context ended: neither done nor failed
	Failed                         // an error, a panic, or the deadline
	FailedTransient                // a Transient error, which Retry may re-run
)

// Result is what one attempt produced.
type Result[T any] struct {
	Value   T
	Outcome Outcome
	// Err is the failure or stop cause; nil on success. A recovered
	// panic keeps its stack (PanicStack).
	Err error
	// Cell is the attempt's durable state, nil without a Path or when it
	// could not be opened. The caller decides when to Discard it.
	Cell *snapshot.Cell
}

// RunAttempt runs one attempt at a cell: it opens or resumes the state
// file, runs the pre-run faults and then the cell under Recover and the
// optional deadline, and classifies the outcome. Before it returns it
// joins the cell's write in flight (snapshot.Cell writes behind the
// run), so the file holds the last save or the attempt failed: a failed
// write is never Succeeded or Stopped.
func RunAttempt[T any](ctx context.Context, a Attempt, run func(ctx context.Context) (T, error)) Result[T] {
	var res Result[T]
	actx := ctx
	if a.Deadline > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, a.Deadline)
		defer cancel()
	}
	rctx := actx
	if a.Path != "" {
		cell, err := snapshot.OpenCell(a.cellSpec(), a.Key)
		if err != nil {
			res.Outcome, res.Err = Failed, fmt.Errorf("opening cell snapshot: %w", err)
			return res
		}
		res.Cell, rctx = cell, snapshot.WithCell(actx, cell)
	}
	res.Err = Recover(func() error {
		if a.Faults != nil {
			if err := a.Faults.PreRun(actx, a.Key); err != nil {
				return err
			}
		}
		var err error
		res.Value, err = run(rctx)
		return err
	})
	if res.Cell != nil {
		// No write outlives the attempt, and a failed one fails it.
		if werr := res.Cell.Wait(); werr != nil && (res.Err == nil || errors.Is(res.Err, snapshot.ErrStopped)) {
			var zero T
			res.Value, res.Err = zero, werr
		}
	}
	switch err := res.Err; {
	case err == nil:
		res.Outcome = Succeeded
	case errors.Is(err, snapshot.ErrStopped):
		res.Outcome = Stopped
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		res.Outcome = Cancelled
	case ctx.Err() == nil && actx.Err() != nil:
		// Surface the deadline as DeadlineExceeded even if the run
		// wrapped or replaced it.
		res.Outcome = Failed
		res.Err = fmt.Errorf("cell timed out after %v: %w", a.Deadline, context.DeadlineExceeded)
	case IsTransient(err):
		res.Outcome = FailedTransient
	default:
		res.Outcome = Failed
	}
	return res
}

// cellSpec wires the attempt's save callback and faults into the cell.
func (a Attempt) cellSpec() snapshot.CellSpec {
	kill := a.Kill
	if kill == nil {
		kill = KillProcess
	}
	spec := snapshot.CellSpec{
		Path:    a.Path,
		Every:   a.Every,
		Trigger: a.Trigger,
		OnSave: func(saves int) {
			if a.OnSave != nil {
				a.OnSave(saves)
			}
			if a.Faults != nil && a.Faults.OnSave(a.Key, saves) {
				kill()
			}
		},
	}
	if a.Faults != nil {
		spec.PreSave = func(saves int) error { return a.Faults.PreSave(a.Key, saves) }
	}
	return spec
}

// KillProcess sends SIGKILL to the current process: no unwind, no
// deferred cleanup — losing the machine mid-ROI, which is what the
// save-site kill faults model.
func KillProcess() {
	p, _ := os.FindProcess(os.Getpid())
	_ = p.Kill()
}

// The retry backoff: attempt k waits backoffBase<<k, capped at
// backoffCap, plus jitter in [0, backoffBase).
const (
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// Retry is the one retry rule of the sweep harness, and so of the fleet
// coordinator's sweep. After failed attempt number attempt (1-based) of
// the cell key, it reports whether to run the cell again — only
// Transient failures are retried, at most retries times — and the delay
// before the next attempt. The delay is a pure function of (seed, key,
// attempt): it does not depend on how many other cells retried first,
// on worker scheduling, or on any shared stream position, so a retry
// schedule reproduces exactly given the seed, whichever worker's
// failure triggered it.
func Retry(seed uint64, key string, attempt, retries int, err error) (time.Duration, bool) {
	if !IsTransient(err) || attempt > retries {
		return 0, false
	}
	return backoff(seed, key, attempt-1), true
}

// backoff is the delay before retry k (0-based) of the cell: the capped
// exponential plus jitter drawn from a stream keyed by (seed, key, k).
func backoff(seed uint64, key string, k int) time.Duration {
	d := backoffBase << uint(k)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	h := seed ^ 0x6861726e657373 // "harness"
	for _, b := range []byte(key) {
		h = rng.Mix64(h ^ uint64(b))
	}
	j := time.Duration(rng.New(rng.Mix64(h^uint64(k))).Float64() * float64(backoffBase))
	return d + j
}
