package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/rpc"
	"sync"
	"time"

	"mayacache/internal/harness"
)

// CoordOptions configures a Coordinator. Zero values select defaults.
type CoordOptions struct {
	Grid Grid

	// Lease is how long a granted cell may go without a heartbeat before
	// it is reclaimed and reassigned (default 10s). It bounds how long a
	// dead, hung, or partitioned worker can stall a cell.
	Lease time.Duration
	// Heartbeat is the cadence workers refresh leases at (default
	// Lease/5). It also bounds coordinator-cancellation latency: workers
	// learn of a shutdown on their next heartbeat.
	Heartbeat time.Duration
	// Retries bounds re-executions per cell: a cell may fail (transient
	// error or lease expiry) at most Retries times and still be retried;
	// total attempts = Retries+1. Non-transient failures are terminal
	// immediately. harness.Retry decides, exactly as for the serial
	// harness, and its delay gates the cell's next grant.
	Retries int
	// Seed drives the backoff jitter.
	Seed uint64
	// SnapshotEvery is the periodic cell-snapshot cadence handed to
	// workers (0 disables periodic saves).
	SnapshotEvery uint64
	// Checkpoint, when non-nil, restores completed cells on construction
	// and streams each accepted completion through the fsync'd JSONL
	// writer, so a killed coordinator resumes where it stopped.
	Checkpoint *harness.Checkpoint
	// Logf, when non-nil, receives progress lines (migrations, expiries,
	// failures).
	Logf func(format string, args ...any)
}

// cellState is the lease state machine. Transitions:
//
//	PENDING -> LEASED            (lease granted, attempt begins)
//	LEASED  -> DONE              (worker Completed with a value)
//	LEASED  -> PENDING           (transient failure or lease expiry,
//	                              retry budget left; notBefore gates the
//	                              next grant by the backoff schedule)
//	LEASED  -> FAILED            (non-transient failure, or budget spent)
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellFailed
)

// AttemptRecord is the audit trail of one attempt at a cell, kept for
// tests and operators; nothing in it feeds back into results.
type AttemptRecord struct {
	Worker    string
	Migrated  bool // attempt began from a shipped snapshot blob
	SnapSaves int  // cumulative saves embodied in that blob at grant
	Saves     int  // durable saves during the attempt
	OK        bool
	Err       string // completion error, or "lease expired"
}

type cellRun struct {
	cell      Cell
	state     cellState
	attempts  int       // attempts started (grants)
	notBefore time.Time // earliest next grant (backoff gate)

	// Current lease, valid while state == cellLeased.
	leaseID uint64
	worker  string
	expires time.Time

	// Migration state: the last uploaded snapshot blob and the
	// cumulative durable save count it embodies. snapBase pins the
	// cumulative count at the current lease's grant, so attempt-relative
	// upload counts fold in correctly.
	snap       []byte
	snapSaves  int
	snapBase   int
	migrations int

	value json.RawMessage
	err   string
	log   []AttemptRecord
}

// Coordinator owns the cell table and the lease state machine. It is
// driven entirely by worker RPCs plus one expiry scanner goroutine
// (Serve); all mutation happens under mu.
type Coordinator struct {
	opts CoordOptions

	mu        sync.Mutex
	cells     map[string]*cellRun
	order     []string // deterministic grant order (Grid.Cells order)
	nextLease uint64
	nextWID   int
	openN     int // cells not yet DONE/FAILED
	stopped   bool

	doneCh   chan struct{}
	doneOnce sync.Once
}

// NewCoordinator validates the grid, restores completed cells from the
// checkpoint, and returns a coordinator ready to serve.
func NewCoordinator(opts CoordOptions) (*Coordinator, error) {
	if err := opts.Grid.Validate(); err != nil {
		return nil, err
	}
	if opts.Lease <= 0 {
		opts.Lease = 10 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.Lease / 5
	}
	if opts.Heartbeat >= opts.Lease {
		return nil, fmt.Errorf("dist: heartbeat %v must be shorter than lease %v", opts.Heartbeat, opts.Lease)
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("dist: retries must be >= 0 (got %d)", opts.Retries)
	}
	c := &Coordinator{
		opts:   opts,
		cells:  map[string]*cellRun{},
		doneCh: make(chan struct{}),
	}
	for _, cell := range opts.Grid.Cells() {
		key := fullKey(cell.Key)
		if _, dup := c.cells[key]; dup {
			return nil, fmt.Errorf("dist: duplicate grid cell %s", key)
		}
		run := &cellRun{cell: cell}
		if opts.Checkpoint != nil {
			var raw json.RawMessage
			hit, err := opts.Checkpoint.Lookup(key, &raw)
			if err != nil {
				return nil, err
			}
			if hit {
				run.state = cellDone
				run.value = raw
			}
		}
		if run.state != cellDone {
			c.openN++
		}
		c.cells[key] = run
		c.order = append(c.order, key)
	}
	if c.openN == 0 {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
	return c, nil
}

// requeue returns the cell to PENDING, grantable from at. It is a method
// so the wall-clock gate is written apart from the attempt count that
// feeds harness.Retry's jitter: mayavet's seedflow taint is per struct,
// not per field, and cannot tell the two apart within one function.
func (r *cellRun) requeue(at time.Time) { r.state, r.notBefore = cellPending, at }

// fullKey is the harness checkpoint key for a grid cell.
func fullKey(cellKey string) string { return GridExperiment + "|" + cellKey }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// NewServer returns an rpc.Server with the coordinator's service
// registered under the name "Coord". The service wrapper exists so
// net/rpc sees exactly the five protocol methods and nothing else.
func (c *Coordinator) NewServer() (*rpc.Server, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coord", &service{c: c}); err != nil {
		return nil, fmt.Errorf("dist: registering coordinator service: %w", err)
	}
	return srv, nil
}

// Done is closed when every cell is resolved (DONE or FAILED) or the
// run was cancelled.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Heartbeat returns the resolved worker heartbeat cadence. Transports
// should linger about two of these after Done before tearing down, so
// idle workers observe the dismissal on their next lease poll and exit
// cleanly instead of hitting a dead link.
func (c *Coordinator) Heartbeat() time.Duration { return c.opts.Heartbeat }

// Serve runs the lease-expiry scanner until ctx ends or all cells
// resolve. On ctx cancellation it marks the run stopped, so subsequent
// heartbeats carry Stop and subsequent lease requests return Done — the
// bounded-latency cancellation path — and closes Done so waiters
// unblock.
func (c *Coordinator) Serve(ctx context.Context) {
	tick := c.opts.Heartbeat
	if half := c.opts.Lease / 2; tick > half {
		tick = half
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.stopped = true
			c.mu.Unlock()
			c.doneOnce.Do(func() { close(c.doneCh) })
			return
		case <-c.doneCh:
			return
		case <-t.C:
			c.expireLeases(time.Now())
		}
	}
}

// maybeFinishLocked closes doneCh once no cell remains open.
func (c *Coordinator) maybeFinishLocked() {
	if c.openN == 0 {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// expireLeases reclaims every lease that has outlived its deadline,
// treating each expiry as a failed (inherently transient) attempt: the
// worker is presumed dead or partitioned, so the cell re-enters PENDING
// behind its backoff gate — or FAILED if the budget is spent. The
// worker's last uploaded snapshot stays attached for migration.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range c.order {
		run := c.cells[key]
		if run.state != cellLeased || now.Before(run.expires) {
			continue
		}
		run.log = append(run.log, AttemptRecord{
			Worker:    run.worker,
			Migrated:  run.migrations > 0,
			SnapSaves: run.snapSaves,
			Err:       "lease expired",
		})
		c.logf("lease expired: cell %s worker %s attempt %d", key, run.worker, run.attempts)
		c.settleFailureLocked(key, run, "lease expired (worker lost)", true, now)
	}
}

// settleFailureLocked routes a failed attempt (completion error or
// expiry) through the retry rule.
func (c *Coordinator) settleFailureLocked(key string, run *cellRun, msg string, transient bool, now time.Time) {
	run.leaseID = 0
	run.worker = ""
	err := errors.New(msg)
	if transient {
		err = harness.Transient(err)
	}
	if delay, retry := harness.Retry(c.opts.Seed, key, run.attempts, c.opts.Retries, err); retry {
		run.requeue(now.Add(delay))
		return
	}
	run.state = cellFailed
	if transient {
		msg = fmt.Sprintf("%s (retry budget exhausted after %d attempt(s))", msg, run.attempts)
	}
	run.err = msg
	c.logf("cell FAILED: %s: %s", key, msg)
	c.openN--
	c.maybeFinishLocked()
}

// grant finds the next grantable cell for worker id, or explains why
// none is available.
func (c *Coordinator) grant(workerID string, now time.Time, reply *LeaseReply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || c.openN == 0 {
		reply.Done = true
		return
	}
	var soonest time.Time
	for _, key := range c.order {
		run := c.cells[key]
		if run.state != cellPending {
			continue
		}
		if now.Before(run.notBefore) {
			if soonest.IsZero() || run.notBefore.Before(soonest) {
				soonest = run.notBefore
			}
			continue
		}
		c.nextLease++
		run.state = cellLeased
		run.attempts++
		run.leaseID = c.nextLease
		run.worker = workerID
		run.expires = now.Add(c.opts.Lease)
		reply.Granted = true
		reply.LeaseID = run.leaseID
		reply.Cell = run.cell
		reply.Attempt = run.attempts
		reply.Snapshot = run.snap
		reply.SnapshotSaves = run.snapSaves
		run.snapBase = run.snapSaves
		if len(run.snap) > 0 {
			run.migrations++
			c.logf("migrating cell %s to worker %s (attempt %d, %d save(s) preserved)",
				key, workerID, run.attempts, run.snapSaves)
		}
		return
	}
	// Nothing grantable right now: leased cells in flight, or pending
	// cells behind their backoff gates. Tell the worker when to ask
	// again.
	wait := c.opts.Heartbeat
	if !soonest.IsZero() {
		if d := soonest.Sub(now); d < wait {
			wait = d
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	reply.RetryAfter = wait
}

// complete settles a worker-reported attempt outcome.
func (c *Coordinator) complete(args *CompleteArgs, now time.Time, reply *CompleteReply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	run := c.leasedRunLocked(args.WorkerID, args.LeaseID)
	if run == nil {
		// Lease fencing: expiry already reassigned the cell (or the run
		// finished). The late result is discarded — the cell's value
		// comes from whichever attempt holds the valid lease, and since
		// values are pure functions of the spec, dropping this one
		// changes nothing but bookkeeping.
		reply.Accepted = false
		return
	}
	reply.Accepted = true
	key := fullKey(run.cell.Key)
	run.log = append(run.log, AttemptRecord{
		Worker:    args.WorkerID,
		Migrated:  args.Migrated,
		SnapSaves: run.snapSaves,
		Saves:     args.Saves,
		OK:        args.Err == "",
		Err:       args.Err,
	})
	if args.Err != "" {
		c.settleFailureLocked(key, run, args.Err, args.Transient, now)
		return
	}
	run.state = cellDone
	run.value = args.Value
	run.leaseID = 0
	run.worker = ""
	run.snap = nil
	if c.opts.Checkpoint != nil {
		if err := c.opts.Checkpoint.Record(key, args.Value); err != nil {
			// The value is correct but not durable; surface loudly and
			// keep going — the run's report is still complete.
			c.logf("checkpoint write failed for %s: %v", key, err)
		}
	}
	c.openN--
	c.maybeFinishLocked()
}

// leasedRunLocked resolves (worker, leaseID) to the cell run holding
// that exact lease, or nil.
func (c *Coordinator) leasedRunLocked(workerID string, leaseID uint64) *cellRun {
	for _, key := range c.order {
		run := c.cells[key]
		if run.state == cellLeased && run.leaseID == leaseID && run.worker == workerID {
			return run
		}
	}
	return nil
}

// Report assembles the final per-cell outcome table, sorted by key.
func (c *Coordinator) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows := make([]Row, 0, len(c.order))
	for _, key := range c.order {
		run := c.cells[key]
		row := Row{Key: run.cell.Key}
		switch run.state {
		case cellDone:
			row.Value = run.value
		case cellFailed:
			row.Err = run.err
		default:
			row.Err = "not completed (run cancelled)"
		}
		rows = append(rows, row)
	}
	sortRows(rows)
	return Report{Rows: rows}
}

// AttemptLog returns the attempt audit trail for one cell (by cell key
// suffix) plus its migration count — the accounting surface the chaos
// tests assert "a kill costs at most one snapshot interval" on.
func (c *Coordinator) AttemptLog(cellKey string) ([]AttemptRecord, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	run, ok := c.cells[fullKey(cellKey)]
	if !ok {
		return nil, 0
	}
	out := make([]AttemptRecord, len(run.log))
	copy(out, run.log)
	return out, run.migrations
}

// service is the net/rpc receiver: exactly the protocol methods, so
// rpc.Register sees nothing else on the coordinator.
type service struct {
	c *Coordinator
}

// Register assigns the worker its ID and timing parameters.
func (s *service) Register(args *RegisterArgs, reply *RegisterReply) error {
	s.c.mu.Lock()
	s.c.nextWID++
	id := fmt.Sprintf("w%d", s.c.nextWID)
	s.c.mu.Unlock()
	if args.Name != "" {
		id = fmt.Sprintf("%s(%s)", id, args.Name)
	}
	reply.WorkerID = id
	reply.Lease = s.c.opts.Lease
	reply.Heartbeat = s.c.opts.Heartbeat
	reply.SnapshotEvery = s.c.opts.SnapshotEvery
	return nil
}

// Lease grants the next available cell (or schedules a re-poll).
func (s *service) Lease(args *LeaseArgs, reply *LeaseReply) error {
	s.c.grant(args.WorkerID, time.Now(), reply)
	return nil
}

// Heartbeat extends a live lease and reports revocation/shutdown.
func (s *service) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	reply.Stop = s.c.stopped
	run := s.c.leasedRunLocked(args.WorkerID, args.LeaseID)
	if run == nil {
		reply.Revoked = true
		return nil
	}
	run.expires = time.Now().Add(s.c.opts.Lease)
	return nil
}

// Upload stores a cell-state blob as the migration seed for its cell.
func (s *service) Upload(args *UploadArgs, reply *UploadReply) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	run := s.c.leasedRunLocked(args.WorkerID, args.LeaseID)
	if run == nil {
		reply.Stale = true
		return nil
	}
	run.snap = args.State
	// Fold the attempt-relative count into the cumulative one: the blob
	// embodies everything the grant shipped plus this attempt's saves.
	run.snapSaves = run.snapBase + args.Saves
	return nil
}

// Complete settles an attempt outcome.
func (s *service) Complete(args *CompleteArgs, reply *CompleteReply) error {
	s.c.complete(args, time.Now(), reply)
	return nil
}
