package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mayacache/internal/cachesim"
	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/mc"
	"mayacache/internal/snapshot"
)

// Config parameterizes a Server.
type Config struct {
	// Dir is the durable data directory: the session journal plus a
	// cells/ subdirectory of per-session MAYASNAP state.
	Dir string
	// Workers bounds concurrently running sessions (0 =
	// harness.DefaultWorkers).
	Workers int
	// SnapshotEvery is the auto-snapshot cadence in simulator steps
	// (0 = DefaultSnapshotEvery). It bounds the work a crash can lose.
	SnapshotEvery uint64
	// Quotas are the admission bounds.
	Quotas Quotas
	// ShedP99: shed admissions while the p99 run latency exceeds this
	// watermark (0 disables the latency shed).
	ShedP99 time.Duration
	// RunDeadline is the default per-session run deadline (0 = none);
	// Spec.DeadlineMS overrides per session.
	RunDeadline time.Duration
	// JitterSeed seeds the Retry-After jitter stream.
	JitterSeed uint64
	// Faults, when non-nil, is consulted at every session attempt's
	// fault sites (nil in production; see harness.Attempt).
	Faults harness.Faults
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// DefaultSnapshotEvery is the default auto-snapshot cadence in steps.
const DefaultSnapshotEvery = 1 << 16

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return harness.DefaultWorkers()
}

func (c Config) snapshotEvery() uint64 {
	if c.SnapshotEvery > 0 {
		return c.SnapshotEvery
	}
	return DefaultSnapshotEvery
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// session is one tenant run's in-memory state. Mutable fields are
// guarded by the server mutex; tracker is internally atomic so the
// simulator and SSE readers touch it lock-free. A done session's result
// lives only in its journal record.
type session struct {
	id   string
	spec Spec

	state   string
	errMsg  string
	tracker *mc.Tracker
	// notify coalesces progress kicks for SSE streams (capacity 1).
	notify chan struct{}
	// done closes on the terminal transition (done/failed).
	done chan struct{}
}

func newSession(id string, sp Spec) *session {
	return &session{
		id: id, spec: sp, state: StateQueued,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// kick coalesces a progress notification (never blocks).
func (sess *session) kick() {
	select {
	case sess.notify <- struct{}{}:
	default:
	}
}

// SessionInfo is a point-in-time public view of a session.
type SessionInfo struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// Done/Total report progress in retired instructions. After a crash
	// recovery Done restarts from the resumed snapshot, so it reaches
	// Total minus the replayed interval on completion.
	Done  uint64 `json:"done"`
	Total uint64 `json:"total"`
	Spec  Spec   `json:"spec"`
}

// Server schedules tenant sessions over a bounded worker pool with a
// journaled manifest. Lifecycle: Open → Start → (Admit/...) → Drain or
// cancel → Close.
type Server struct {
	cfg     Config
	ck      *harness.Checkpoint
	shed    *shedder
	trig    snapshot.Trigger
	nworker int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	doneCh chan struct{}

	mu            sync.Mutex
	cond          *sync.Cond
	sessions      map[string]*session
	queue         []string
	queuedTenant  map[string]int
	runningTenant map[string]int
	runningCount  int
	draining      bool
	started       bool
	nextID        int
	recovered     int
}

// Open loads (or initializes) the service state under cfg.Dir and
// re-admits every journaled session that has no terminal record — the
// crash-recovery path. Workers do not run until Start.
func Open(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ck, err := harness.OpenCheckpoint(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("serve: opening session journal: %w", err)
	}
	s := &Server{
		cfg:           cfg,
		ck:            ck,
		shed:          newShedder(cfg.ShedP99, cfg.JitterSeed),
		nworker:       cfg.workers(),
		doneCh:        make(chan struct{}),
		sessions:      map[string]*session{},
		queuedTenant:  map[string]int{},
		runningTenant: map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		_ = ck.Close()
		return nil, err
	}
	return s, nil
}

// recover replays the journal: done sessions become servable records,
// unfinished ones re-enter the queue in admission order. A journal with
// records may have been left by a process killed mid-write, so recover
// then lists cells/ once to remove what no session will read: the temp
// files of cell writes that were never renamed, and the cell files of
// done sessions that a crash left between the done record and the
// cleanup. A fresh journal skips the scan.
func (s *Server) recover() error {
	keys := s.ck.Keys()
	var ids []string
	for _, key := range keys {
		id, ok := strings.CutPrefix(key, "admit|")
		if !ok {
			continue
		}
		var sp Spec
		if _, err := s.ck.Lookup(key, &sp); err != nil {
			return fmt.Errorf("serve: journal %s: %w", key, err)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n > s.nextID {
			s.nextID = n
		}
		s.sessions[id] = newSession(id, sp)
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareIDs)
	doneCells := map[string]bool{}
	for _, key := range keys {
		id, ok := strings.CutPrefix(key, "done|")
		if !ok {
			continue
		}
		sess := s.sessions[id]
		if sess == nil {
			return fmt.Errorf("serve: journal has terminal record for unknown session %s", id)
		}
		// Only the error is needed here; decoding the whole Outcome
		// would copy every result's bytes at boot.
		var out struct {
			Error string `json:"error,omitempty"`
		}
		if _, err := s.ck.Lookup(key, &out); err != nil {
			return fmt.Errorf("serve: journal %s: %w", key, err)
		}
		if out.Error != "" {
			sess.state, sess.errMsg = StateFailed, out.Error
		} else {
			sess.state = StateDone
		}
		close(sess.done)
		doneCells[filepath.Base(s.cellPath(sess))] = true
	}
	if len(keys) > 0 {
		if err := s.removeDeadCells(doneCells); err != nil {
			return err
		}
	}
	for _, id := range ids {
		sess := s.sessions[id]
		if sess.state != StateQueued {
			continue
		}
		s.queue = append(s.queue, id)
		s.queuedTenant[sess.spec.Tenant]++
		s.recovered++
	}
	if s.recovered > 0 {
		s.cfg.logf("serve: recovered %d unfinished session(s) from journal", s.recovered)
	}
	return nil
}

// removeDeadCells removes, in one listing of cells/, the named cell files
// of done sessions and the temp files that snapshot.WriteFileAtomic
// leaves when the process dies before its rename. A temp file that was
// never renamed is never state, and the journal's lock rules out a live
// writer in another process.
func (s *Server) removeDeadCells(doneCells map[string]bool) error {
	dir := filepath.Join(s.cfg.Dir, "cells")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !doneCells[name] && !(strings.HasPrefix(name, ".cell-") && strings.Contains(name, ".snap.tmp")) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("serve: removing a dead cell file: %w", err)
		}
	}
	return nil
}

// compareIDs orders session IDs by admission. IDs are "s" and a number
// of at least six digits, so a longer ID was admitted later: s1000000
// follows s999999.
func compareIDs(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
}

// Start launches the worker pool under ctx. Cancelling ctx is the hard
// stop (sessions abort without saving; their last durable snapshot still
// resumes on the next Open). Drain is the graceful one.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("serve: Start called twice")
	}
	s.started = true
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.mu.Unlock()
	// Wake parked workers when the context dies.
	go func() {
		<-s.ctx.Done()
		s.cond.Broadcast()
	}()
	for i := 0; i < s.nworker; i++ {
		s.wg.Add(1)
		go s.worker(s.ctx)
	}
	go func() {
		s.wg.Wait()
		close(s.doneCh)
	}()
}

// Done is closed once every worker has parked — after Drain completes or
// the run context is cancelled.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Trigger exposes the server's snapshot trigger so a signal handler
// (harness.NotifyShutdown) can share it; fire Drain, not the trigger
// alone — a bare fire saves sessions but leaves workers re-running them.
func (s *Server) Trigger() *snapshot.Trigger { return &s.trig }

// Drain begins the graceful two-stage shutdown: admissions now fail with
// ErrDraining, queued sessions stay journaled for the next boot, and the
// snapshot trigger makes every running session persist exact simulator
// state and stop. Workers park as their sessions stop.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.trig.Fire()
	s.cond.Broadcast()
	s.cfg.logf("serve: draining (snapshot trigger fired)")
}

// Close hard-cancels anything still running, waits for workers, and
// releases the journal. Safe after Drain; also the kill path for tests.
func (s *Server) Close() error {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		s.cancel()
		<-s.doneCh
	}
	return s.ck.Close()
}

// Admit validates, journals, and enqueues one session, returning its ID.
// Errors: ErrBadSpec (reject), ErrDraining (shutting down), *ShedError
// (overloaded; carries the Retry-After hint).
func (s *Server) Admit(sp Spec) (string, error) {
	if err := sp.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining || (s.ctx != nil && s.ctx.Err() != nil) {
		s.mu.Unlock()
		return "", ErrDraining
	}
	q := s.cfg.Quotas
	queued, running := len(s.queue), s.runningCount
	reason := ""
	switch {
	case s.queuedTenant[sp.Tenant] >= q.tenantQueued():
		reason = "tenant queue"
	case queued >= q.globalQueued():
		reason = "global queue"
	case s.shed.latencyShed():
		reason = "latency watermark"
	}
	if reason != "" {
		s.mu.Unlock()
		s.shed.shed()
		return "", &ShedError{Reason: reason, RetryAfter: s.shed.retryAfter(queued, running, s.nworker)}
	}
	s.nextID++
	id := fmt.Sprintf("s%06d", s.nextID)
	// The admission is acknowledged only after its journal record is
	// durable: a kill -9 immediately after Admit returns must still
	// recover the session.
	if err := s.ck.Record("admit|"+id, sp); err != nil {
		s.nextID--
		s.mu.Unlock()
		return "", fmt.Errorf("serve: journaling admission: %w", err)
	}
	if err := s.ck.Sync(); err != nil {
		s.nextID--
		s.mu.Unlock()
		return "", fmt.Errorf("serve: journaling admission: %w", err)
	}
	sess := newSession(id, sp)
	s.sessions[id] = sess
	s.queue = append(s.queue, id)
	s.queuedTenant[sp.Tenant]++
	s.cond.Broadcast()
	s.mu.Unlock()
	return id, nil
}

// Session returns the current view of one session (nil if unknown).
func (s *Server) Session(id string) *SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil
	}
	return s.infoLocked(sess)
}

func (s *Server) infoLocked(sess *session) *SessionInfo {
	return &SessionInfo{
		ID:     sess.id,
		Tenant: sess.spec.Tenant,
		State:  sess.state,
		Error:  sess.errMsg,
		Done:   min(sess.tracker.Done(), sess.spec.TotalInstr()),
		Total:  sess.spec.TotalInstr(),
		Spec:   sess.spec,
	}
}

// Sessions lists all sessions in admission order.
func (s *Server) Sessions() []*SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sessions))
	//mayavet:ignore maporder -- ids are sorted immediately below
	for id := range s.sessions {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareIDs)
	out := make([]*SessionInfo, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.infoLocked(s.sessions[id]))
	}
	return out
}

// Result returns the journaled result bytes of a completed session.
// ok=false: unknown or not finished; a failed session yields its error.
func (s *Server) Result(id string) (raw json.RawMessage, errMsg string, ok bool) {
	s.mu.Lock()
	var state string
	if sess := s.sessions[id]; sess != nil {
		state, errMsg = sess.state, sess.errMsg
	}
	s.mu.Unlock()
	switch state {
	case StateDone:
		// Read after releasing s.mu: the journal's lock is held across
		// fsyncs.
		var out Outcome
		if _, err := s.ck.Lookup("done|"+id, &out); err != nil {
			return nil, err.Error(), true
		}
		return out.Result, "", true
	case StateFailed:
		return nil, errMsg, true
	default:
		return nil, "", false
	}
}

// Stats is the /statsz snapshot.
type Stats struct {
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Shed      uint64 `json:"shed"`
	Recovered int    `json:"recovered"`
	Workers   int    `json:"workers"`
	Draining  bool   `json:"draining"`
	P99MS     int64  `json:"p99_ms"`
}

// StatsNow summarizes the server's state.
func (s *Server) StatsNow() Stats {
	s.mu.Lock()
	st := Stats{
		Queued:    len(s.queue),
		Running:   s.runningCount,
		Recovered: s.recovered,
		Workers:   s.nworker,
		Draining:  s.draining,
	}
	for _, sess := range s.sessions {
		switch sess.state {
		case StateDone:
			st.Completed++
		case StateFailed:
			st.Failed++
		}
	}
	s.mu.Unlock()
	st.Shed = s.shed.sheds()
	st.P99MS = s.shed.p99().Milliseconds()
	return st
}

// worker pulls eligible sessions until drain or cancellation.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var sess *session
		for {
			if ctx.Err() != nil || s.draining {
				s.mu.Unlock()
				return
			}
			if i := s.eligibleLocked(); i >= 0 {
				id := s.queue[i]
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				sess = s.sessions[id]
				sess.state = StateRunning
				s.queuedTenant[sess.spec.Tenant]--
				s.runningTenant[sess.spec.Tenant]++
				s.runningCount++
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.runSession(ctx, sess)
	}
}

// eligibleLocked returns the index of the first queued session whose
// tenant has running capacity, or -1. FIFO within that constraint: a
// tenant at its running quota cannot starve the sessions behind it.
func (s *Server) eligibleLocked() int {
	limit := s.cfg.Quotas.tenantRunning()
	for i, id := range s.queue {
		if s.runningTenant[s.sessions[id].spec.Tenant] < limit {
			return i
		}
	}
	return -1
}

// cellPath is the session's durable MAYASNAP file.
func (s *Server) cellPath(sess *session) string {
	return filepath.Join(s.cfg.Dir, "cells", snapshot.CellFileName(sessionKey(sess.id, sess.spec)))
}

// sessionKey names the session's cell. It embeds the session ID and
// tenant (so fault injectors can target one session) plus the full grid
// cell key (so state is inapplicable — not corrupting — across specs).
func sessionKey(id string, sp Spec) string {
	return fmt.Sprintf("serve|%s|%s|%s", id, sp.Tenant,
		experiments.GridCellKey(experiments.Design(sp.Design), sp.Bench, sp.Cores, sp.Scale()))
}

// runSession executes one session end to end through the shared
// attempt path and settles its outcome:
//
//   - success → fsynced done record, cell discarded;
//   - snapshot.ErrStopped (drain) → state saved, session stays admitted,
//     the next boot resumes it;
//   - hard cancel → nothing recorded, the last durable save resumes;
//   - a deadline, error, or panic → terminal failure record, so a
//     restarted daemon serves the failure instead of re-running it.
func (s *Server) runSession(ctx context.Context, sess *session) {
	deadline := s.cfg.RunDeadline
	if sess.spec.DeadlineMS > 0 {
		deadline = time.Duration(sess.spec.DeadlineMS) * time.Millisecond
	}
	tracker := mc.NewTracker(sess.spec.TotalInstr(), func(done, total uint64) { sess.kick() })
	s.mu.Lock()
	sess.tracker = tracker
	s.mu.Unlock()

	// The clock starts before the pre-run faults, so a slow-tenant stall
	// spends the session's deadline and shows in the shedder's p99.
	start := time.Now()
	res := harness.RunAttempt(ctx, harness.Attempt{
		Key:      sessionKey(sess.id, sess.spec),
		Path:     s.cellPath(sess),
		Every:    s.cfg.snapshotEvery(),
		Trigger:  &s.trig,
		Deadline: deadline,
		Faults:   s.cfg.Faults,
	}, func(ctx context.Context) (cachesim.Results, error) {
		return experiments.RunGridCell(mc.WithTracker(ctx, tracker), experiments.Design(sess.spec.Design),
			sess.spec.Bench, sess.spec.Cores, sess.spec.Scale())
	})
	switch res.Outcome {
	case harness.Stopped:
		// Drain: the final snapshot is durable; the session remains
		// admitted in the journal and resumes on the next boot.
		s.cfg.logf("serve: %s: state saved for resume (%d saves)", sess.id, res.Cell.Saves())
		s.interrupted(sess)
		return
	case harness.Cancelled:
		// Hard cancel: the process is exiting; recovery happens from the
		// last durable save at the next Open.
		s.interrupted(sess)
		return
	}
	if res.Cell == nil {
		// The state file could not be opened: nothing ran.
		s.settle(sess, nil, res.Err)
		return
	}
	s.shed.observe(time.Since(start))
	s.settle(sess, &res.Value, res.Err)
	if derr := res.Cell.Discard(); derr != nil {
		s.cfg.logf("serve: %s: discarding cell: %v", sess.id, derr)
	}
}

// interrupted returns a running session to the queued state without a
// terminal record (drain or hard cancel; workers are exiting).
func (s *Server) interrupted(sess *session) {
	s.mu.Lock()
	sess.state = StateQueued
	s.runningTenant[sess.spec.Tenant]--
	s.runningCount--
	s.queue = append([]string{sess.id}, s.queue...)
	s.queuedTenant[sess.spec.Tenant]++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// settle journals a session's terminal outcome — err, or else res —
// fsynced before the state transition is visible, so an acknowledged
// result survives kill -9, and wakes waiters. A session is done only once
// its record is written and synced; if either step fails it ends failed
// with the journaling error.
func (s *Server) settle(sess *session, res *cachesim.Results, err error) {
	var out Outcome
	if err != nil {
		out.Error = err.Error()
	} else {
		raw, merr := json.Marshal(res)
		if merr != nil {
			out.Error = fmt.Sprintf("encoding result: %v", merr)
		} else {
			out.Result = raw
		}
	}
	jerr := s.ck.Record("done|"+sess.id, out)
	if jerr == nil {
		jerr = s.ck.Sync()
	}
	if jerr != nil {
		s.cfg.logf("serve: %s: journaling outcome: %v", sess.id, jerr)
		out.Error = fmt.Sprintf("journaling outcome: %v", jerr)
	}
	s.mu.Lock()
	if out.Error != "" {
		sess.state, sess.errMsg = StateFailed, out.Error
	} else {
		sess.state = StateDone
	}
	s.runningTenant[sess.spec.Tenant]--
	s.runningCount--
	close(sess.done)
	s.cond.Broadcast()
	s.mu.Unlock()
	sess.kick()
}
