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
// A front step fills one record — the event gap, how deep the access went
// (L1 hit / L2 hit / LLC demand), and the ordered list of shared-LLC
// operations the step performs — and the drive loop applies it. The drive
// loop steps the laggard's front itself, into one reused record, so every
// shared access, DRAM transaction, clock advance, and snapshot poll
// happens in one fixed order on one goroutine.

import (
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/trace"
)

// Step record kinds: how deep the demand access went.
const (
	stepL1Hit = uint8(iota) // L1D hit; fully pipelined, no window entry
	stepL2Hit               // L2 hit; long-latency, no shared ops from the demand
	stepLLC                 // LLC demand access (the opDemand in the op list)
)

// Shared-operation kinds. applyStep performs a step's ops in the order
// the front recorded them.
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

// stepRec is one front step's record. ops is reused in place, so once
// it has grown to the largest step, stepping allocates nothing (see
// bench.TestMacroDriveZeroAlloc).
type stepRec struct {
	gap  int32
	kind uint8
	ops  []sharedOp
}

// front is the timing-independent half of one core: its components.
type front struct {
	id  int
	gen trace.Generator
	l1d *baseline.SetAssoc
	l2  *baseline.SetAssoc
	pf  *prefetcher
}

// privateStep advances the front by one trace event and fills r with its
// record. It is the only walk of the private hierarchy: every
// LLC-touching call is recorded instead of performed, in the order
// applyStep must perform it. Stores hit the L1D as writebacks (RFO +
// dirty); the fetch on a miss is a demand read, and dirtiness propagates
// down the hierarchy through natural eviction. Prefetches walk the same
// hierarchy and pollute it exactly as hardware prefetches do.
func (f *front) privateStep(r *stepRec) {
	ev := f.gen.Next()
	r.ops = r.ops[:0]
	id := uint8(f.id)

	kind := stepL1Hit
	l1Type := cachemodel.Read
	if ev.Write {
		l1Type = cachemodel.Writeback
	}
	r1 := f.l1d.Access(cachemodel.Access{Line: ev.Line, Type: l1Type, SDID: id, Core: id})
	for _, wb := range r1.Writebacks {
		f.l2WB(r, wb)
	}
	if !r1.DataHit {
		acc := cachemodel.Access{Line: ev.Line, Type: cachemodel.Read, SDID: id, Core: id}
		r2 := f.l2.Access(acc)
		if r2.DataHit {
			kind = stepL2Hit
		} else {
			for _, wb := range r2.Writebacks {
				r.ops = append(r.ops, sharedOp{line: wb.Line, kind: opWB, sdid: wb.SDID})
			}
			kind = stepLLC
			r.ops = append(r.ops, sharedOp{line: ev.Line, kind: opDemand, sdid: id})
		}
	}

	if f.pf != nil {
		for _, pl := range f.pf.observe(ev.Line) {
			acc := cachemodel.Access{Line: pl, Type: cachemodel.Read, SDID: id, Core: id}
			if r1 := f.l1d.Access(acc); r1.DataHit {
				continue
			} else {
				for _, wb := range r1.Writebacks {
					f.l2WB(r, wb)
				}
			}
			if r2 := f.l2.Access(acc); r2.DataHit {
				continue
			} else {
				for _, wb := range r2.Writebacks {
					r.ops = append(r.ops, sharedOp{line: wb.Line, kind: opWB, sdid: wb.SDID})
				}
			}
			r.ops = append(r.ops, sharedOp{line: pl, kind: opPrefetch, sdid: id})
		}
	}

	r.gap, r.kind = ev.Gap, kind
}

// l2WB sends an L1 dirty victim into the L2 (writeback-allocate) and
// records any L2 victims it displaces for the LLC.
func (f *front) l2WB(r *stepRec, wb cachemodel.WritebackOut) {
	res := f.l2.Access(cachemodel.Access{Line: wb.Line, Type: cachemodel.Writeback, SDID: wb.SDID, Core: uint8(f.id)})
	for _, w := range res.Writebacks {
		r.ops = append(r.ops, sharedOp{line: w.Line, kind: opWB, sdid: w.SDID})
	}
}

// resetStats clears the private caches' statistics at the warmup→ROI
// barrier (System.beginROI).
func (f *front) resetStats() {
	f.l1d.ResetStats()
	f.l2.ResetStats()
}
