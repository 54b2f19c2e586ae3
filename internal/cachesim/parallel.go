package cachesim

// Where the drive loop takes its step records from (see front.go): the
// laggard's own front stepped inline, or the batches its worker goroutine
// fills ahead of the merge, with snapshot replicas that reconstruct each
// front at the merge's position.

import (
	"fmt"
	"sync"

	"mayacache/internal/baseline"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// streamBatches is the number of batches each worker cycles through. It
// bounds the worker's run-ahead to streamBatches*batchSteps steps, which
// in turn bounds the replay distance snapshot replicas cover.
const streamBatches = 32

// recordSource hands the drive loop one core's next step record. Inline
// (a serial run: no workers) it steps the core's live front into a
// one-record scratch batch. Otherwise it reads the batches the core's
// worker sends, blocking while the worker is behind. Blocking is what
// keeps the replay order exact: the merge never skips ahead to another
// core just because the laggard's records aren't ready yet.
type recordSource struct {
	scratch  batch
	streams  []stream // one per core; nil inline
	saved    []*front // fronts' result, reused across saves
	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// stream is the merge's read position in one worker's records. The
// worker takes batches from free and sends them filled on full, in
// order; the merge returns each consumed batch to free. Each channel can
// hold every batch, so only a receive from an empty one waits.
type stream struct {
	free, full chan *batch
	err        error // written by the worker before it closes full
	cur        *batch
	pos, opPos int
	consumed   uint64   // records applied; drives replica sync
	rep        *replica // set when snapshots are armed
}

// records returns the record source for the rest of the current run:
// inline when par <= 1, else one worker goroutine per core (the Go
// scheduler multiplexes them over however many CPUs the process has).
// The caller must join it.
func (s *System) records(par int) (*recordSource, error) {
	for _, c := range s.cores {
		c.f.seek(c, s)
	}
	rs := &recordSource{}
	if par <= 1 {
		return rs, nil
	}
	rs.streams = make([]stream, len(s.cores))
	if s.auto != nil {
		for i, c := range s.cores {
			rep, err := s.replicate(c)
			if err != nil {
				return nil, err
			}
			rs.streams[i].rep = rep
		}
	}
	rs.stop = make(chan struct{})
	for i, c := range s.cores {
		st := &rs.streams[i]
		st.free, st.full = make(chan *batch, streamBatches), make(chan *batch, streamBatches)
		for range streamBatches {
			// Four ops per step covers all but pathological batches, so
			// the drive loop stays allocation-free in steady state (see
			// bench.TestMacroDriveZeroAlloc).
			st.free <- &batch{ops: make([]sharedOp, 0, 4*batchSteps)}
		}
		rs.wg.Add(1)
		go func(f *front) {
			defer rs.wg.Done()
			workerRun(f, st.free, st.full, rs.stop, &st.err)
		}(c.f)
	}
	return rs, nil
}

// inline reports whether the source steps the live fronts itself.
func (rs *recordSource) inline() bool { return rs.streams == nil }

// join stops any workers and waits for them to exit. Idempotent.
func (rs *recordSource) join() {
	if rs.inline() {
		return
	}
	rs.stopOnce.Do(func() { close(rs.stop); rs.wg.Wait() })
}

// next returns core c's next step record.
func (rs *recordSource) next(c *core) (gap int32, kind uint8, ops []sharedOp, err error) {
	if !rs.inline() {
		return rs.streams[c.id].next(c.id)
	}
	b := &rs.scratch
	b.reset()
	c.f.privateStep(b)
	return b.gaps[0], b.kinds[0], b.ops, nil
}

// next returns core id's next record from its worker's batches.
func (st *stream) next(id int) (gap int32, kind uint8, ops []sharedOp, err error) {
	b := st.cur
	if b == nil || st.pos >= b.n {
		if b != nil {
			st.free <- b
		}
		var ok bool
		if b, ok = <-st.full; !ok {
			st.cur = nil
			if st.err != nil {
				return 0, 0, nil, st.err
			}
			// Unreachable unless the worker and merge disagree on the
			// phase budgets — a bug, not a runtime condition.
			return 0, 0, nil, fmt.Errorf("cachesim: core %d record stream ended early", id)
		}
		st.cur = b
		st.pos, st.opPos = 0, 0
	}
	n := int(b.nOps[st.pos])
	gap, kind = b.gaps[st.pos], b.kinds[st.pos]
	ops = b.ops[st.opPos : st.opPos+n]
	st.pos++
	st.opPos += n
	st.consumed++
	return gap, kind, ops, nil
}

// fronts returns every core's private front at the drive loop's position,
// for a snapshot: the live fronts inline, else the replicas replayed up to
// the records the merge has applied (the workers are ahead of it).
func (rs *recordSource) fronts(s *System) []*front {
	rs.saved = rs.saved[:0]
	for i, c := range s.cores {
		if rs.inline() {
			rs.saved = append(rs.saved, c.f)
			continue
		}
		st := &rs.streams[i]
		st.rep.advanceTo(st.consumed, s.phase)
		rs.saved = append(rs.saved, st.rep.f)
	}
	return rs.saved
}

// replica reconstructs one core's private front at the merge's replay
// position so mid-run snapshots can serialize it. Workers run ahead of
// the merge, so their live fronts are at future positions; the replica is
// an independent clone advanced lazily — only when a snapshot is due — by
// re-executing the same deterministic private steps.
type replica struct {
	f       *front
	pos     uint64 // private steps replayed so far
	scratch *batch // discard sink for the replayed records
}

// advanceTo replays private steps until the replica has executed n, then
// applies the warmup→ROI stats reset if the merge has passed the global
// phase barrier. The reset is keyed to the *global* phase, not the
// replica's own boundary: a core that finishes warmup early keeps its
// warmup stats until every core arrives at beginROI, and a snapshot
// taken in between must show them un-reset.
func (r *replica) advanceTo(n uint64, globalPhase uint8) {
	for r.pos < n {
		if r.f.phase == snapshot.PhaseWarmup && r.f.retired >= r.f.target {
			r.f.localBeginROI()
		}
		r.f.privateStep(r.scratch)
		r.scratch.reset()
		r.pos++
	}
	if r.f.phase == snapshot.PhaseWarmup && r.f.retired >= r.f.target && globalPhase == snapshot.PhaseROI {
		r.f.localBeginROI()
	}
}

// cloneableGen is the workload contract parallel snapshotting needs: the
// synthetic generators and the trace replayer implement it; see
// trace/clone.go.
type cloneableGen interface {
	Clone() trace.Generator
}

// cloneCache duplicates a private cache through its own snapshot codec
// into a freshly built twin.
func cloneCache(src *baseline.SetAssoc, mk func() *baseline.SetAssoc) (*baseline.SetAssoc, error) {
	dst := mk()
	var e snapshot.Encoder
	src.SaveState(&e)
	d := snapshot.NewDecoder(e.Data())
	if err := dst.RestoreState(d); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
}

func (p *prefetcher) clone() *prefetcher {
	if p == nil {
		return nil
	}
	c := *p
	c.entries = append([]strideEntry(nil), p.entries...)
	return &c
}

// replicate clones core c's front at the current run position. Called
// before the workers start, while the live fronts are quiescent.
func (s *System) replicate(c *core) (*replica, error) {
	cg, ok := c.f.gen.(cloneableGen)
	if !ok {
		return nil, fmt.Errorf("cachesim: parallel snapshots need a cloneable workload, %q is not", c.f.gen.Name())
	}
	l1d, err := cloneCache(c.f.l1d, func() *baseline.SetAssoc { return s.newL1D(c.id) })
	if err != nil {
		return nil, fmt.Errorf("cachesim: core %d L1D replica: %w", c.id, err)
	}
	l2, err := cloneCache(c.f.l2, func() *baseline.SetAssoc { return s.newL2(c.id) })
	if err != nil {
		return nil, fmt.Errorf("cachesim: core %d L2 replica: %w", c.id, err)
	}
	f := *c.f
	f.gen, f.l1d, f.l2, f.pf = cg.Clone(), l1d, l2, c.f.pf.clone()
	return &replica{f: &f, scratch: new(batch)}, nil
}
