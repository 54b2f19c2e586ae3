package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/rpc"
	"slices"
	"sync"
	"time"

	"mayacache/internal/harness"
)

// CoordOptions configures a Coordinator. Zero values select defaults.
type CoordOptions struct {
	Grid Grid

	// Lease is how long a granted cell may go without a heartbeat before
	// its attempt fails and the cell is offered again (default 10s). It
	// bounds how long a dead, hung, or partitioned worker can stall a
	// cell.
	Lease time.Duration
	// Heartbeat is the cadence workers refresh leases at (default
	// Lease/5). It also bounds coordinator-cancellation latency: workers
	// learn of a shutdown on their next heartbeat.
	Heartbeat time.Duration
	// Retries bounds re-executions per cell: a cell may fail (transient
	// error or lease expiry) at most Retries times and still be retried;
	// total attempts = Retries+1. Non-transient failures are terminal
	// immediately. The grid's sweep retries exactly as RunSerial's does.
	Retries int
	// Seed drives the backoff jitter.
	Seed uint64
	// SnapshotEvery is the periodic cell-snapshot cadence handed to
	// workers (0 disables periodic saves).
	SnapshotEvery uint64
	// Checkpoint, when non-nil, is the sweep's checkpoint: completed
	// cells are restored from it and each completion is recorded, so a
	// killed coordinator resumes where it stopped. A coordinator whose
	// checkpoint holds every cell is Done at construction.
	Checkpoint *harness.Checkpoint
	// Logf, when non-nil, receives progress lines (migrations, expiries).
	Logf func(format string, args ...any)
}

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

// cellRun is what outlives one attempt at a cell: the last uploaded
// snapshot blob, the cumulative durable save count it embodies, and the
// attempt log.
type cellRun struct {
	snap       []byte
	snapSaves  int
	migrations int
	log        []AttemptRecord
}

// attempt is one remote attempt at a cell. It waits on the offers
// channel until a Lease call grants it, and is then held by that lease
// until its Complete, its expiry, or the end of the run.
type attempt struct {
	cell Cell
	run  *cellRun
	// The lease, set by the Lease call: its ID (0 until granted),
	// holder and deadline, and run.snapSaves at grant, onto which the
	// attempt's own upload counts fold.
	id      uint64
	worker  string
	expires time.Time
	base    int
	result  chan CompleteArgs // the lease's accepted Complete
}

// Coordinator runs its grid as one harness sweep (Serve) whose cell
// function is a remote attempt, and serves the RPCs through which
// workers lease, renew, upload to and complete those attempts. What the
// RPCs share is guarded by mu.
type Coordinator struct {
	opts   CoordOptions
	runner *harness.Runner
	cells  []Cell
	runs   map[string]*cellRun // by Cell.Key; the map itself is fixed at construction
	offers chan *attempt
	done   chan struct{}

	mu        sync.Mutex
	leases    map[uint64]*attempt // live leases by ID
	nextLease uint64
	nextWID   int
	report    Report
}

// NewCoordinator validates the grid and returns a coordinator ready to
// serve, or already Done when its checkpoint holds every cell.
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
	cells := opts.Grid.Cells()
	c := &Coordinator{
		opts: opts,
		// Every open cell waits for a worker at once; the workers'
		// leases bound how many run.
		runner: harness.New(harness.Options{
			Workers:    len(cells),
			Retries:    opts.Retries,
			Seed:       opts.Seed,
			Checkpoint: opts.Checkpoint,
		}),
		cells:  cells,
		runs:   map[string]*cellRun{},
		offers: make(chan *attempt),
		done:   make(chan struct{}),
		leases: map[uint64]*attempt{},
	}
	restored := opts.Checkpoint != nil
	for _, cell := range cells {
		if c.runs[cell.Key] != nil {
			return nil, fmt.Errorf("dist: duplicate grid cell %s", fullKey(cell.Key))
		}
		c.runs[cell.Key] = &cellRun{}
		restored = restored && opts.Checkpoint.Has(fullKey(cell.Key))
	}
	if restored {
		// The sweep restores every cell without an attempt.
		c.run(context.Background())
	}
	return c, nil
}

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

// Done is closed when every cell is resolved (done or failed) or the
// run was cancelled, once Report holds the outcome.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Heartbeat returns the resolved worker heartbeat cadence. Transports
// should linger about two of these after Done before tearing down, so
// idle workers observe the dismissal on their next lease poll and exit
// cleanly instead of hitting a dead link.
func (c *Coordinator) Heartbeat() time.Duration { return c.opts.Heartbeat }

// Serve runs the grid until every cell resolves or ctx ends, then closes
// Done. By then every lease is revoked, so a cell still running on a
// worker is cancelled at its next heartbeat — the bounded-latency
// cancellation path — and lease requests are dismissed. The grid is one
// harness.RunCells sweep, the same as RunSerial's, so retry, backoff,
// checkpointing and the report are the serial harness's own.
func (c *Coordinator) Serve(ctx context.Context) {
	select {
	case <-c.done:
	default:
		c.run(ctx)
	}
}

// run sweeps the grid with remote attempts and publishes the report.
func (c *Coordinator) run(ctx context.Context) {
	rep, _ := runGrid(ctx, c.runner, c.cells, c.remote)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report = rep
	// Fence off a lease granted as its attempt was cancelled.
	clear(c.leases)
	close(c.done)
}

// errLeaseExpired fails an attempt whose worker stopped heartbeating;
// the sweep retries it like any transient failure.
var errLeaseExpired = remoteError("lease expired (worker lost)", true)

// remote is the sweep's cell function: one remote attempt at cell i. It
// waits for a Lease call to take it, then for that lease's Complete, the
// end of ctx, or the lease running out without a heartbeat, which it
// checks once a heartbeat.
func (c *Coordinator) remote(ctx context.Context, i int) (json.RawMessage, error) {
	a := &attempt{cell: c.cells[i], run: c.runs[c.cells[i].Key], result: make(chan CompleteArgs, 1)}
	select {
	case c.offers <- a:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer c.release(a)
	t := time.NewTicker(c.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case args := <-a.result:
			if args.Err != "" {
				return nil, remoteError(args.Err, args.Transient)
			}
			return args.Value, nil
		case <-t.C:
			if c.expired(a) {
				return nil, errLeaseExpired
			}
		}
	}
}

// expired revokes a's lease and logs the lost attempt once its deadline
// has passed. A lease not recorded yet, or completed, has not expired.
func (c *Coordinator) expired(a *attempt) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leases[a.id] != a || time.Now().Before(a.expires) {
		return false
	}
	delete(c.leases, a.id)
	a.run.log = append(a.run.log, AttemptRecord{
		Worker:    a.worker,
		Migrated:  a.run.migrations > 0,
		SnapSaves: a.run.snapSaves,
		Err:       "lease expired",
	})
	c.logf("lease expired: cell %s worker %s attempt %d", fullKey(a.cell.Key), a.worker, len(a.run.log))
	return true
}

// release ends a's lease, if it is still live, when its attempt returns.
func (c *Coordinator) release(a *attempt) {
	c.mu.Lock()
	delete(c.leases, a.id)
	c.mu.Unlock()
}

// leasedLocked resolves (worker, leaseID) to the attempt holding that
// exact lease, or nil: lease fencing.
func (c *Coordinator) leasedLocked(workerID string, leaseID uint64) *attempt {
	if a := c.leases[leaseID]; a != nil && a.worker == workerID {
		return a
	}
	return nil
}

// Report returns the per-cell outcome table, sorted by key. It reflects
// the run once Done is closed.
func (c *Coordinator) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// AttemptLog returns the attempt audit trail for one cell (by cell key
// suffix) plus its migration count — the accounting surface the chaos
// tests assert "a kill costs at most one snapshot interval" on.
func (c *Coordinator) AttemptLog(cellKey string) ([]AttemptRecord, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	run, ok := c.runs[cellKey]
	if !ok {
		return nil, 0
	}
	return slices.Clone(run.log), run.migrations
}

// failure is an attempt's error as the report shows it: the text
// verbatim, wrapping a harness.Transient error when the sweep may retry
// it.
type failure struct {
	msg       string
	transient error
}

func (f *failure) Error() string { return f.msg }
func (f *failure) Unwrap() error { return f.transient }

// remoteError rebuilds a failure from its text.
func remoteError(msg string, transient bool) error {
	f := &failure{msg: msg}
	if transient {
		f.transient = harness.Transient(errors.New(msg))
	}
	return f
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

// Lease grants the worker the next waiting attempt, waiting up to one
// heartbeat for one, and ships the cell's migration blob with it; once
// the run is over it dismisses the worker.
func (s *service) Lease(args *LeaseArgs, reply *LeaseReply) error {
	c := s.c
	t := time.NewTimer(c.opts.Heartbeat)
	defer t.Stop()
	var a *attempt
	select {
	case a = <-c.offers:
	case <-c.done:
		reply.Done = true
		return nil
	case <-t.C:
		return nil // nothing waiting: the worker asks again
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.done:
		// The run ended as the attempt was taken: run has cleared the
		// leases, so none may be recorded now.
		reply.Done = true
		return nil
	default:
	}
	c.nextLease++
	a.id, a.worker, a.base = c.nextLease, args.WorkerID, a.run.snapSaves
	a.expires = time.Now().Add(c.opts.Lease)
	c.leases[a.id] = a
	reply.Granted = true
	reply.LeaseID = a.id
	reply.Cell = a.cell
	reply.Snapshot = a.run.snap
	reply.SnapshotSaves = a.run.snapSaves
	if len(a.run.snap) > 0 {
		a.run.migrations++
		c.logf("migrating cell %s to worker %s (attempt %d, %d save(s) preserved)",
			fullKey(a.cell.Key), args.WorkerID, len(a.run.log)+1, a.run.snapSaves)
	}
	return nil
}

// Heartbeat extends a live lease or reports it revoked.
func (s *service) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	a := s.c.leasedLocked(args.WorkerID, args.LeaseID)
	if a == nil {
		reply.Revoked = true
		return nil
	}
	a.expires = time.Now().Add(s.c.opts.Lease)
	return nil
}

// Upload stores a cell-state blob as the migration seed for its cell.
func (s *service) Upload(args *UploadArgs, reply *UploadReply) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	a := s.c.leasedLocked(args.WorkerID, args.LeaseID)
	if a == nil {
		reply.Stale = true
		return nil
	}
	a.run.snap = args.State
	// Fold the attempt-relative count into the cumulative one: the blob
	// embodies everything the grant shipped plus this attempt's saves.
	a.run.snapSaves = a.base + args.Saves
	return nil
}

// Complete hands a worker-reported outcome to the attempt holding its
// lease.
func (s *service) Complete(args *CompleteArgs, reply *CompleteReply) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.leasedLocked(args.WorkerID, args.LeaseID)
	if a == nil {
		// Lease fencing: the lease expired and the cell was offered
		// again (or the run finished). The late result is discarded —
		// values are pure functions of the spec, so dropping this one
		// changes nothing but bookkeeping.
		return nil
	}
	delete(c.leases, a.id)
	reply.Accepted = true
	a.run.log = append(a.run.log, AttemptRecord{
		Worker:    args.WorkerID,
		Migrated:  args.Migrated,
		SnapSaves: a.run.snapSaves,
		Saves:     args.Saves,
		OK:        args.Err == "",
		Err:       args.Err,
	})
	if args.Err == "" {
		a.run.snap = nil
	}
	a.result <- *args
	return nil
}
