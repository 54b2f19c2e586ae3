package main

import (
	"fmt"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/trace"
)

// The traced runs attribute time to layers from outside: they record the
// exact call stream a layer receives inside a full run, then replay that
// stream through a fresh, identically built instance of the layer alone.
// A replay that reproduces the recorded instance's counters exactly is an
// attribution of the full run's work, not an estimate of it.

// Recorded LLC operation kinds.
const (
	kindRead = uint8(iota)
	kindWriteback
	kindFlush
	kindReset
)

// llcOp is one recorded call into an LLC, with the outcome the DRAM replay
// needs: whether a read missed and how many dirty victims it pushed out.
type llcOp struct {
	line       uint64
	kind       uint8
	sdid, core uint8
	miss       bool
	nwb        uint16
}

// recorder wraps an LLC and records every call that changes it. Once
// limit operations are held (0 = no limit) it stops recording, keeps the
// wrapped design's counters at that point in atLimit, and passes further
// calls straight through.
type recorder struct {
	cachemodel.LLC
	ops     []llcOp
	wbs     []uint64 // victim lines of every recorded access, in order
	limit   int
	full    bool
	atLimit cachemodel.Stats
}

func newRecorder(llc cachemodel.LLC, limit int) *recorder {
	return &recorder{LLC: llc, limit: limit}
}

func (r *recorder) add(op llcOp) {
	if r.full {
		return
	}
	r.ops = append(r.ops, op)
	if r.limit > 0 && len(r.ops) >= r.limit {
		r.full = true
		r.atLimit = r.LLC.StatsSnapshot()
	}
}

// Access implements cachemodel.LLC.
func (r *recorder) Access(a cachemodel.Access) cachemodel.Result {
	res := r.LLC.Access(a)
	if !r.full {
		kind := kindRead
		if a.Type == cachemodel.Writeback {
			kind = kindWriteback
		}
		for _, wb := range res.Writebacks {
			r.wbs = append(r.wbs, wb.Line)
		}
		r.add(llcOp{line: a.Line, kind: kind, sdid: a.SDID, core: a.Core, miss: !res.DataHit, nwb: uint16(len(res.Writebacks))})
	}
	return res
}

// Flush implements cachemodel.LLC.
func (r *recorder) Flush(line uint64, sdid uint8) bool {
	ok := r.LLC.Flush(line, sdid)
	r.add(llcOp{line: line, kind: kindFlush, sdid: sdid})
	return ok
}

// ResetStats implements cachemodel.LLC.
func (r *recorder) ResetStats() {
	r.LLC.ResetStats()
	r.add(llcOp{kind: kindReset})
}

// recorded returns the counters the replay must reproduce: the wrapped
// design's at the recording limit, or its current ones.
func (r *recorder) recorded() cachemodel.Stats {
	if r.full {
		return r.atLimit
	}
	return r.LLC.StatsSnapshot()
}

// accesses counts the recorded Access calls.
func (r *recorder) accesses() int {
	n := 0
	for _, op := range r.ops {
		if op.kind == kindRead || op.kind == kindWriteback {
			n++
		}
	}
	return n
}

// replayLLC drives ops through c in order.
func replayLLC(c cachemodel.LLC, ops []llcOp) {
	for _, op := range ops {
		switch op.kind {
		case kindRead:
			c.Access(cachemodel.Access{Line: op.line, Type: cachemodel.Read, SDID: op.sdid, Core: op.core})
		case kindWriteback:
			c.Access(cachemodel.Access{Line: op.line, Type: cachemodel.Writeback, SDID: op.sdid, Core: op.core})
		case kindFlush:
			c.Flush(op.line, op.sdid)
		case kindReset:
			c.ResetStats()
		}
	}
}

// replayDRAM issues the memory traffic a recorded LLC stream caused, in
// the order the simulator issues it: each access's dirty victims are
// written, then a read that missed is fetched. Row-buffer state depends
// only on that order, so the counters match the recorded run exactly; the
// timestamps are synthetic and move only latencies, which nothing reads.
func replayDRAM(d *cachesim.DRAM, ops []llcOp, wbs []uint64) {
	var now uint64
	next := 0
	for _, op := range ops {
		switch op.kind {
		case kindRead, kindWriteback:
			for _, line := range wbs[next : next+int(op.nwb)] {
				d.Write(now, line)
			}
			next += int(op.nwb)
			if op.kind == kindRead && op.miss {
				d.Read(now, op.line)
			}
			now += 8
		case kindReset:
			d.ResetCounters()
		}
	}
}

// nullLLC always hits and never evicts: a system built on it runs the
// trace generators, private caches and drive loop over the same events as
// a real run (the per-core front is independent of the LLC), with no LLC
// or DRAM work.
type nullLLC struct{}

func (nullLLC) Access(cachemodel.Access) cachemodel.Result {
	return cachemodel.Result{TagHit: true, DataHit: true}
}
func (nullLLC) Flush(uint64, uint8) bool         { return false }
func (nullLLC) Probe(uint64, uint8) (bool, bool) { return true, true }
func (nullLLC) LookupPenalty() int               { return 0 }
func (nullLLC) StatsSnapshot() cachemodel.Stats  { return cachemodel.Stats{} }
func (nullLLC) ResetStats()                      {}
func (nullLLC) Name() string                     { return "null" }
func (nullLLC) Geometry() cachemodel.Geometry    { return cachemodel.Geometry{} }

// countingGen counts the events a core consumed.
type countingGen struct {
	trace.Generator
	n int
}

func (c *countingGen) Next() trace.Event {
	c.n++
	return c.Generator.Next()
}

// privateCaches builds core i's L1D and L2 exactly as cachesim.System
// does for a system with the given seed and core parameters.
func privateCaches(p cachesim.CoreParams, seed uint64, i int) (l1d, l2 *baseline.SetAssoc, err error) {
	l1d, err = baseline.NewChecked(baseline.Config{
		Sets: p.L1DSets, Ways: p.L1DWays, Replacement: baseline.LRU,
		Seed: seed + uint64(i)*2 + 1, NamePrefix: fmt.Sprintf("L1D[%d]", i),
	})
	if err != nil {
		return nil, nil, err
	}
	l2, err = baseline.NewChecked(baseline.Config{
		Sets: p.L2Sets, Ways: p.L2Ways, Replacement: baseline.LRU,
		Seed: seed + uint64(i)*2 + 2, NamePrefix: fmt.Sprintf("L2[%d]", i),
	})
	return l1d, l2, err
}

// replayPrivate walks events through core id's L1D and L2 the way the
// simulator's demand path does (the default core has no prefetcher) and
// appends the LLC operations that walk issues to out.
func replayPrivate(l1d, l2 *baseline.SetAssoc, id uint8, events []trace.Event, out []llcOp) []llcOp {
	for _, ev := range events {
		l1Type := cachemodel.Read
		if ev.Write {
			l1Type = cachemodel.Writeback
		}
		r1 := l1d.Access(cachemodel.Access{Line: ev.Line, Type: l1Type, SDID: id, Core: id})
		for _, wb := range r1.Writebacks {
			r := l2.Access(cachemodel.Access{Line: wb.Line, Type: cachemodel.Writeback, SDID: wb.SDID, Core: id})
			for _, w := range r.Writebacks {
				out = append(out, llcOp{line: w.Line, kind: kindWriteback, sdid: w.SDID, core: id})
			}
		}
		if r1.DataHit {
			continue
		}
		r2 := l2.Access(cachemodel.Access{Line: ev.Line, Type: cachemodel.Read, SDID: id, Core: id})
		if r2.DataHit {
			continue
		}
		for _, w := range r2.Writebacks {
			out = append(out, llcOp{line: w.Line, kind: kindWriteback, sdid: w.SDID, core: id})
		}
		out = append(out, llcOp{line: ev.Line, kind: kindRead, sdid: id, core: id})
	}
	return out
}

// sameStream reports whether core's LLC operations in ops (ignoring the
// recorded outcomes) are exactly want.
func sameStream(ops []llcOp, core uint8, want []llcOp) bool {
	j := 0
	for _, op := range ops {
		if op.core != core || (op.kind != kindRead && op.kind != kindWriteback) {
			continue
		}
		if j >= len(want) || want[j].line != op.line || want[j].kind != op.kind || want[j].sdid != op.sdid {
			return false
		}
		j++
	}
	return j == len(want)
}
