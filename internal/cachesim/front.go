package cachesim

// Every run splits each core's simulation into two halves with very
// different data dependencies:
//
//   - the *front*: trace generator, L1D, L2, and prefetcher. Which events a
//     core issues and how they behave in its private hierarchy depend only
//     on the access sequence, never on any clock or on other cores — the
//     generators are pure state machines and the private caches decide
//     hits, fills, and victims from access order alone. The front is
//     therefore a timing-independent pure function of its own state.
//
//   - everything else: per-core clocks, the ROB/MSHR outstanding window,
//     the shared LLC, and DRAM. These couple cores to each other (LLC and
//     DRAM state are order-sensitive) and feed latencies back into clocks,
//     so the drive loop applies them (System.applyStep) in laggard order.
//
// A front step emits one record — the event gap, how deep the access went
// (L1 hit / L2 hit / LLC demand), and the ordered list of shared-LLC
// operations the step performs — and the drive loop applies it. A serial
// run steps the laggard's front inline; the deterministic parallel mode
// (RunSpec.Parallelism > 1) runs each front ahead on its own worker
// goroutine, which sends its records to the merge over a per-core channel
// in batches of batchSteps (see parallel.go). Either way every shared
// access, DRAM transaction, clock advance, and snapshot poll happens in
// the same order with the same state, so Results and snapshots are
// byte-identical.

import (
	"fmt"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// Step record kinds: how deep the demand access went.
const (
	stepL1Hit = uint8(iota) // L1D hit; fully pipelined, no window entry
	stepL2Hit               // L2 hit; long-latency, no shared ops from the demand
	stepLLC                 // LLC demand access (the opDemand in the op list)
)

// Shared-operation kinds, in the order the merge must replay them.
const (
	opWB       = uint8(iota) // L2 dirty victim written back into the LLC
	opDemand                 // the demand read reaching the LLC
	opPrefetch               // a prefetch read reaching the LLC
)

// sharedOp is one LLC-touching operation a front step performs.
type sharedOp struct {
	line uint64
	kind uint8
	sdid uint8
}

// batchSteps is the number of step records per batch a worker sends: one
// channel send and one receive per 64 steps.
const batchSteps = 64

// batch is up to batchSteps consecutive step records of one core,
// struct-of-arrays: step i's shared ops are the next nOps[i] entries of
// ops, in replay order. The fixed-size lanes live inline; ops is the only
// dynamic part and is reused in place, so after the first few batches
// grow it, filling a batch allocates nothing. A serial run's inline
// source reuses one batch that holds a single record.
type batch struct {
	n     int
	gaps  [batchSteps]int32
	kinds [batchSteps]uint8
	nOps  [batchSteps]uint16
	ops   []sharedOp
}

func (b *batch) reset() {
	b.n = 0
	b.ops = b.ops[:0]
}

// front is the timing-independent half of one core: its components and
// the worker cursor (run progress as the front has stepped it). In a
// parallel run the worker owns the core's front until it is joined, so
// the merge never touches it; snapshot replicas use cloned fronts.
type front struct {
	id  int
	gen trace.Generator
	l1d *baseline.SetAssoc
	l2  *baseline.SetAssoc
	pf  *prefetcher

	retired uint64
	target  uint64
	roi     uint64
	phase   uint8
	done    bool
}

// seek moves f's cursor to core c's position in the current run.
func (f *front) seek(c *core, s *System) {
	f.retired, f.target, f.done = c.retired, c.target, c.done
	f.roi, f.phase = s.roi, s.phase
}

// privateStep advances the front by one trace event and appends its
// record to b. It is the only walk of the private hierarchy: every
// LLC-touching call is recorded instead of performed, in the order
// applyStep must perform it. Stores hit the L1D as writebacks (RFO +
// dirty); the fetch on a miss is a demand read, and dirtiness propagates
// down the hierarchy through natural eviction. Prefetches walk the same
// hierarchy and pollute it exactly as hardware prefetches do.
func (f *front) privateStep(b *batch) {
	ev := f.gen.Next()
	f.retired += uint64(ev.Gap) + 1
	opStart := len(b.ops)
	id := uint8(f.id)

	kind := stepL1Hit
	l1Type := cachemodel.Read
	if ev.Write {
		l1Type = cachemodel.Writeback
	}
	r1 := f.l1d.Access(cachemodel.Access{Line: ev.Line, Type: l1Type, SDID: id, Core: id})
	for _, wb := range r1.Writebacks {
		f.l2WB(b, wb)
	}
	if !r1.DataHit {
		acc := cachemodel.Access{Line: ev.Line, Type: cachemodel.Read, SDID: id, Core: id}
		r2 := f.l2.Access(acc)
		if r2.DataHit {
			kind = stepL2Hit
		} else {
			for _, wb := range r2.Writebacks {
				b.ops = append(b.ops, sharedOp{line: wb.Line, kind: opWB, sdid: wb.SDID})
			}
			kind = stepLLC
			b.ops = append(b.ops, sharedOp{line: ev.Line, kind: opDemand, sdid: id})
		}
	}

	if f.pf != nil {
		for _, pl := range f.pf.observe(ev.Line) {
			acc := cachemodel.Access{Line: pl, Type: cachemodel.Read, SDID: id, Core: id}
			if r1 := f.l1d.Access(acc); r1.DataHit {
				continue
			} else {
				for _, wb := range r1.Writebacks {
					f.l2WB(b, wb)
				}
			}
			if r2 := f.l2.Access(acc); r2.DataHit {
				continue
			} else {
				for _, wb := range r2.Writebacks {
					b.ops = append(b.ops, sharedOp{line: wb.Line, kind: opWB, sdid: wb.SDID})
				}
			}
			b.ops = append(b.ops, sharedOp{line: pl, kind: opPrefetch, sdid: id})
		}
	}

	b.gaps[b.n] = ev.Gap
	b.kinds[b.n] = kind
	b.nOps[b.n] = uint16(len(b.ops) - opStart)
	b.n++
}

// l2WB sends an L1 dirty victim into the L2 (writeback-allocate) and
// records any L2 victims it displaces for the LLC.
func (f *front) l2WB(b *batch, wb cachemodel.WritebackOut) {
	r := f.l2.Access(cachemodel.Access{Line: wb.Line, Type: cachemodel.Writeback, SDID: wb.SDID, Core: uint8(f.id)})
	for _, w := range r.Writebacks {
		b.ops = append(b.ops, sharedOp{line: w.Line, kind: opWB, sdid: w.SDID})
	}
}

// localBeginROI is the front half of beginROI. A worker applies it at its
// core's own warmup→ROI sequence boundary, when its warmup budget is
// spent — before its first ROI-phase access, which is when the reset
// becomes observable. Inline fronts and snapshot replicas, whose state a
// snapshot may observe in between, apply it at the global phase barrier
// (System.beginROI, replica.advanceTo); the orders are indistinguishable
// in Results because a finished core issues no accesses in between.
func (f *front) localBeginROI() {
	f.phase = snapshot.PhaseROI
	f.l1d.ResetStats()
	f.l2.ResetStats()
	f.target = f.retired + f.roi
}

// workerRun produces f's record stream until the run's instruction budget
// is spent, mirroring the phase structure the merge's drive loop consumes:
// warmup steps while retired < target (a restored not-yet-done core always
// has retired < target), then — matching beginROI's unconditional
// done=false — at least one ROI step even when the ROI budget is zero.
// It fills batches taken from free and sends them on full, which never
// blocks because it can hold every batch. The deferred close of full runs
// after the recover handler (LIFO), so the error slot is written before
// the merge can observe the closed stream.
func workerRun(f *front, free <-chan *batch, full chan<- *batch, stop <-chan struct{}, errp *error) {
	defer close(full)
	defer func() {
		if rec := recover(); rec != nil {
			*errp = fmt.Errorf("cachesim: core %d worker: %v", f.id, rec)
		}
	}()
	var b *batch
	// take waits for a free batch; it reports false once stop closes, as
	// the merge has abandoned the run and will free no more.
	take := func() bool {
		select {
		case b = <-free:
			b.reset()
			return true
		case <-stop:
			return false
		}
	}
	if !take() {
		return
	}
	step := func() bool {
		f.privateStep(b)
		if b.n >= batchSteps {
			full <- b
			return take()
		}
		return true
	}

	if f.phase == snapshot.PhaseWarmup {
		if !f.done {
			for f.retired < f.target {
				if !step() {
					return
				}
			}
		}
		f.localBeginROI()
		for {
			if !step() {
				return
			}
			if f.retired >= f.target {
				break
			}
		}
	} else if !f.done {
		for f.retired < f.target {
			if !step() {
				return
			}
		}
	}
	if b.n > 0 {
		full <- b
	}
}
