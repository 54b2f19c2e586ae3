package dist

import (
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mayacache/internal/harness"
	"mayacache/internal/snapshot"
)

// errDropped marks an RPC blackholed by a distdrop fault: from the
// worker's perspective the call simply never came back.
var errDropped = errors.New("dist: rpc dropped (injected partition)")

// Faults is the fault surface a worker consults: the attempt's sites plus
// the RPC site (faults.Set implements it).
type Faults interface {
	harness.Faults
	// Drop reports whether a cell-scoped RPC for key is blackholed.
	Drop(key string) bool
	// HeartbeatDelay is how long a heartbeat for key stalls.
	HeartbeatDelay(key string) time.Duration
}

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name is an optional human label included in the coordinator's
	// assigned worker ID.
	Name string
	// SnapDir is the worker-local directory for durable mid-cell state
	// (required: migration needs somewhere to land blobs).
	SnapDir string
	// Faults, when non-nil, is consulted at each attempt's sites (the
	// same as the serial harness's, so every -fault spec fires alike on
	// workers) and around cell-scoped RPCs. Workers may share one value,
	// giving it fleet-wide "first worker to reach the trigger" semantics
	// — a shared distkill kills whichever worker reaches the n-th save of
	// a matching cell first, exactly once.
	Faults Faults
	// Kill is invoked when a save-site kill fault fires; nil selects the
	// real fault — harness.KillProcess, no unwind, no deferred cleanup.
	// In-process fabrics substitute a hard cancel of the worker.
	Kill func()
	// Trigger, when fired (SIGINT/SIGTERM via harness.NotifyShutdown),
	// makes the in-flight cell save its state, upload it, and stop
	// gracefully: the worker exits without completing, and the lease
	// expiry migrates the cell — losing nothing.
	Trigger *snapshot.Trigger
	// Leases is how many cell leases this worker holds and executes
	// concurrently (0 or 1 = one at a time). Each lease runs the same
	// pull/execute loop; cells land in distinct state files (keyed by
	// cell key), so results stay byte-identical to a serial run.
	Leases int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Worker pulls cell leases from a coordinator over an rpc.Client and
// executes them through the same snapshot-resumable path the serial
// harness uses.
type Worker struct {
	opts      WorkerOptions
	client    *rpc.Client
	id        string
	lease     time.Duration
	heartbeat time.Duration
	snapEvery uint64
}

// NewWorker registers with the coordinator behind client and returns a
// worker configured by the coordinator's timing parameters.
func NewWorker(ctx context.Context, client *rpc.Client, opts WorkerOptions) (*Worker, error) {
	if opts.SnapDir == "" {
		return nil, fmt.Errorf("dist: worker needs a snapshot directory")
	}
	if err := os.MkdirAll(opts.SnapDir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating worker snapshot dir: %w", err)
	}
	if opts.Kill == nil {
		opts.Kill = harness.KillProcess
	}
	w := &Worker{opts: opts, client: client}
	var reply RegisterReply
	if err := w.call(ctx, "Coord.Register", &RegisterArgs{Name: opts.Name}, &reply, ""); err != nil {
		return nil, fmt.Errorf("dist: registering with coordinator: %w", err)
	}
	w.id = reply.WorkerID
	w.lease = reply.Lease
	w.heartbeat = reply.Heartbeat
	w.snapEvery = reply.SnapshotEvery
	return w, nil
}

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() string { return w.id }

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// call issues one RPC bounded by ctx. Cell-scoped calls pass their cell
// key so distdrop faults can blackhole them; the dropped call returns
// errDropped without touching the wire, exactly as a partition would
// look from this side (minus the waiting).
func (w *Worker) call(ctx context.Context, method string, args, reply any, cellKey string) error {
	if cellKey != "" && w.opts.Faults != nil && w.opts.Faults.Drop(cellKey) {
		w.logf("dropping %s for %s (injected partition)", method, cellKey)
		return errDropped
	}
	call := w.client.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case done := <-call.Done:
		return done.Error
	}
}

// Run pulls and executes leases until the coordinator dismisses the
// worker (every cell resolved, or coordinator shutdown), ctx ends, or
// the shutdown trigger fires. With Leases > 1 it drives that many
// concurrent pull/execute loops over the one registration and RPC
// client. The returned error reports transport failures only; cell
// failures travel to the coordinator as structured Complete records.
func (w *Worker) Run(ctx context.Context) error {
	n := w.opts.Leases
	if n <= 1 {
		return w.runLoop(ctx)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(ctx context.Context, i int) {
			defer wg.Done()
			errs[i] = w.runLoop(ctx)
		}(ctx, i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runLoop is one lease-holding loop: request a lease, run the cell,
// repeat until dismissed, cancelled, or signalled.
func (w *Worker) runLoop(ctx context.Context) error {
	for {
		if ctx.Err() != nil || w.opts.Trigger.Fired() {
			return nil
		}
		var lease LeaseReply
		err := w.call(ctx, "Coord.Lease", &LeaseArgs{WorkerID: w.id}, &lease, "")
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil
		case err != nil:
			return fmt.Errorf("dist: lease request failed: %w", err)
		case lease.Done:
			return nil
		case !lease.Granted:
			continue
		}
		w.runCell(ctx, &lease)
	}
}

// runCell executes one leased cell: materialize the migrated snapshot
// blob (if any), run the attempt while a heartbeat goroutine keeps the
// lease alive, then report the outcome — unless the lease was lost, in
// which case the result is abandoned (the reassigned attempt recomputes
// the identical value).
func (w *Worker) runCell(ctx context.Context, lease *LeaseReply) {
	key := fullKey(lease.Cell.Key)
	path := filepath.Join(w.opts.SnapDir, snapshot.CellFileName(key))
	migrated := len(lease.Snapshot) > 0
	if migrated {
		if err := snapshot.WriteFileAtomic(path, lease.Snapshot, 0o644); err != nil {
			w.completeErr(ctx, lease, fmt.Errorf("dist: writing migrated snapshot: %w", err), false, 0)
			return
		}
		w.logf("%s: resuming cell %s from migrated snapshot (%d cumulative save(s))",
			w.id, lease.Cell.Key, lease.SnapshotSaves)
	} else {
		// No blob at the coordinator means this attempt must start
		// fresh; a stale local file from an earlier attempt (its saves
		// were never acknowledged) would resume unacknowledged state.
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			w.completeErr(ctx, lease, fmt.Errorf("dist: clearing stale snapshot: %w", err), false, 0)
			return
		}
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var revoked atomic.Bool
	hbDone := make(chan struct{})
	go w.heartbeats(cctx, cancel, lease, key, &revoked, hbDone)

	res := harness.RunAttempt(cctx, harness.Attempt{
		Key:     key,
		Path:    path,
		Every:   w.snapEvery,
		Trigger: w.opts.Trigger,
		OnSave:  func(saves int) { w.uploadState(cctx, lease, key, path, saves) },
		Faults:  w.opts.Faults,
		Kill: func() {
			w.logf("%s: injected kill during cell %s", w.id, lease.Cell.Key)
			w.opts.Kill()
		},
	}, lease.Cell.Run)
	saves := 0
	if res.Cell != nil {
		saves = res.Cell.Saves()
	}
	cancel()
	<-hbDone

	switch {
	case revoked.Load():
		// Fenced off: the lease expired, or the coordinator's run ended.
		// Nothing to report — a stale Complete would be rejected anyway,
		// and the cell's unwinding context error is not a cell failure.
		w.logf("%s: abandoning cell %s (lease lost)", w.id, lease.Cell.Key)
	case res.Outcome == harness.Stopped:
		// Graceful shutdown: state is durable locally and uploaded to
		// the coordinator; the lease will expire and migrate it.
		w.logf("%s: cell %s stopped after deadline snapshot", w.id, lease.Cell.Key)
	case res.Outcome == harness.Cancelled:
		// Worker-level cancellation (a local signal): not a cell
		// failure.
	case res.Err != nil:
		w.completeErr(ctx, lease, res.Err, migrated, saves)
	default:
		w.complete(ctx, lease, &CompleteArgs{
			WorkerID: w.id,
			LeaseID:  lease.LeaseID,
			Value:    res.Value,
			Migrated: migrated,
			Saves:    saves,
		})
		// The value is reported; this worker's mid-cell state file is
		// obsolete (if rejected as stale, the live attempt has its own).
		if derr := res.Cell.Discard(); derr != nil {
			w.logf("%s: discarding cell state: %v", w.id, derr)
		}
	}
}

// heartbeats refreshes the lease every heartbeat interval until the cell
// context ends, cancelling the cell on revocation (which is how a
// coordinator shutdown reaches it within one interval) or a dead link
// (three consecutive failures — by then the lease has little life left
// anyway).
func (w *Worker) heartbeats(cctx context.Context, cancel context.CancelFunc, lease *LeaseReply, key string, revoked *atomic.Bool, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(w.heartbeat)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-cctx.Done():
			return
		case <-t.C:
		}
		if w.opts.Faults != nil {
			harness.Sleep(cctx, w.opts.Faults.HeartbeatDelay(key))
		}
		var reply HeartbeatReply
		err := w.call(cctx, "Coord.Heartbeat", &HeartbeatArgs{WorkerID: w.id, LeaseID: lease.LeaseID}, &reply, key)
		switch {
		case cctx.Err() != nil:
			return
		case err != nil:
			fails++
			if fails >= 3 {
				w.logf("%s: heartbeat link dead for %s; abandoning", w.id, lease.Cell.Key)
				revoked.Store(true)
				cancel()
				return
			}
		case reply.Revoked:
			revoked.Store(true)
			cancel()
			return
		default:
			fails = 0
		}
	}
}

// uploadState ships the just-saved cell file to the coordinator as the
// cell's migration seed. Upload failures are logged, not fatal: the
// worst case is a migration that restarts from an older blob, which
// costs time, never correctness.
func (w *Worker) uploadState(cctx context.Context, lease *LeaseReply, key, path string, saves int) {
	data, err := os.ReadFile(path)
	if err != nil {
		w.logf("%s: reading cell state for upload: %v", w.id, err)
		return
	}
	var reply UploadReply
	err = w.call(cctx, "Coord.Upload", &UploadArgs{
		WorkerID: w.id, LeaseID: lease.LeaseID, State: data, Saves: saves,
	}, &reply, key)
	if err != nil {
		w.logf("%s: uploading cell state: %v", w.id, err)
	}
}

// completeErr reports a failed attempt.
func (w *Worker) completeErr(ctx context.Context, lease *LeaseReply, runErr error, migrated bool, saves int) {
	w.complete(ctx, lease, &CompleteArgs{
		WorkerID:  w.id,
		LeaseID:   lease.LeaseID,
		Err:       runErr.Error(),
		Transient: harness.IsTransient(runErr),
		Migrated:  migrated,
		Saves:     saves,
	})
}

// complete delivers an attempt outcome; a dropped or failed delivery is
// absorbed by lease expiry (the cell reruns — same value).
func (w *Worker) complete(ctx context.Context, lease *LeaseReply, args *CompleteArgs) {
	key := fullKey(lease.Cell.Key)
	var reply CompleteReply
	if err := w.call(ctx, "Coord.Complete", args, &reply, key); err != nil {
		w.logf("%s: completing cell %s: %v", w.id, lease.Cell.Key, err)
		return
	}
	if !reply.Accepted {
		w.logf("%s: completion of %s rejected (stale lease)", w.id, lease.Cell.Key)
	}
}
