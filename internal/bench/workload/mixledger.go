package main

import (
	"runtime"
	"slices"
	"time"

	"mayacache/internal/cachesim"
	"mayacache/internal/experiments"
	"mayacache/internal/trace"
)

// mixLedgerPass is one pass of the fig9-mix8 ledger. Per design it runs
// the M16 cell untraced, runs it again with the LLC recorded, and replays
// the recorded LLC and DRAM streams alone; once per pass it replays the
// trace generators and private caches alone (the per-core front is the
// same for every design) and runs the cell on a null LLC. The null-LLC run
// costs trace + private caches + drive loop, so the closure — the share of
// the recorded runs that null-LLC + LLC replay + DRAM replay leave
// unexplained — says how far the parts add up to the whole.
func mixLedgerPass(r *runner) (map[string]float64, error) {
	out := map[string]float64{}
	var plain, traced, llcT, dramT, frontT, privT time.Duration
	var dramOps uint64
	var dramSum [4]uint64
	var events []int
	var front [][]llcOp
	var roiInstr []uint64
	for i, d := range mixDesigns {
		key := mixDesignKeys[i]
		dr, err := recordMix(r, d)
		if err != nil {
			return nil, err
		}
		plain += dr.plain
		traced += dr.traced
		if i == 0 {
			events = dr.events
			roiInstr = make([]uint64, len(dr.res.Cores))
			for c, cr := range dr.res.Cores {
				roiInstr[c] = cr.Instructions
			}
			var l1, l2 float64
			frontT, privT, l1, l2, front, err = replayFront(r, events)
			if err != nil {
				return nil, err
			}
			out["private.l1d_hit_rate"] = l1
			out["private.l2_hit_rate"] = l2
		} else if !slices.Equal(dr.events, events) {
			r.fail(1, "%s: cores consumed %v trace events, %s consumed %v", d, dr.events, mixDesigns[0], events)
		}
		for c, want := range front {
			if !sameStream(dr.rec.ops, uint8(c), want) {
				r.fail(1, "%s: core %d's recorded LLC stream differs from its private-cache replay", d, c)
			}
		}

		fresh, err := mixLLC(d, r.seed)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t := time.Now()
		replayLLC(fresh, dr.rec.ops)
		el := time.Since(t)
		llcT += el
		exact := fresh.StatsSnapshot().WithoutMemo() == dr.rec.recorded().WithoutMemo()
		if !exact {
			r.fail(1, "%s: LLC replay diverged from the recorded run", d)
		}
		acc := dr.rec.accesses()
		st := dr.res.LLCStats
		out["llc."+key+".ns_per_access"] = ratio(float64(el.Nanoseconds()), float64(acc))
		out["llc."+key+".accesses"] = float64(acc)
		out["llc."+key+".miss_rate"] = ratio(float64(st.Misses), float64(st.Accesses))
		out["llc."+key+".memo_hit_rate"] = st.MemoHitRate()
		out["llc."+key+".replay_exact"] = boolMetric(exact)
		out["sim."+key+".ipc_sum"] = dr.res.IPCSum()
		out["sim."+key+".mpki"] = dr.res.MPKI()

		dram := cachesim.NewDRAM(mixDRAM(len(events)))
		t = time.Now()
		replayDRAM(dram, dr.rec.ops, dr.rec.wbs)
		dramT += time.Since(t)
		rd, wr, hit, miss := dram.Counters()
		got := [4]uint64{rd, wr, hit, miss}
		if got != [4]uint64{dr.res.DRAMReads, dr.res.DRAMWrites, dr.res.DRAMRowHits, dr.res.DRAMRowMisses} {
			r.fail(1, "%s: DRAM replay diverged from the recorded run", d)
		}
		for j, v := range got {
			dramSum[j] += v
		}
		dramOps += dramTraffic(dr.rec.ops)
	}

	sys, err := newMixSystem(nullLLC{}, r.seed, nil)
	if err != nil {
		return nil, err
	}
	nullRes, null, err := runSim(r, sys)
	if err != nil {
		return nil, err
	}
	for c, cr := range nullRes.Cores {
		if cr.Instructions != roiInstr[c] {
			r.fail(1, "null-LLC core %d retired %d ROI instructions, the designs retire %d", c, cr.Instructions, roiInstr[c])
		}
	}

	ev := 0
	for _, n := range events {
		ev += n
	}
	k := float64(len(mixDesigns))
	tot := float64(traced.Nanoseconds())
	drive := float64((null - frontT - privT).Nanoseconds())
	out["trace.ns_per_event"] = ratio(float64(frontT.Nanoseconds()), float64(ev))
	out["private.ns_per_event"] = ratio(float64(privT.Nanoseconds()), float64(ev))
	out["drive.ns_per_event"] = ratio(drive, float64(ev))
	out["dram.ns_per_op"] = ratio(float64(dramT.Nanoseconds()), float64(dramOps))
	out["dram.row_hit_rate"] = ratio(float64(dramSum[2]), float64(dramSum[2]+dramSum[3]))
	out["dram.reads"] = float64(dramSum[0])
	out["dram.writes"] = float64(dramSum[1])
	out["ledger.fig9-mix8.closure"] = 1 - (k*float64(null.Nanoseconds())+float64(llcT.Nanoseconds())+float64(dramT.Nanoseconds()))/tot
	out["ledger.fig9-mix8.trace_share"] = k * float64(frontT.Nanoseconds()) / tot
	out["ledger.fig9-mix8.private_share"] = k * float64(privT.Nanoseconds()) / tot
	out["ledger.fig9-mix8.drive_share"] = k * drive / tot
	out["ledger.fig9-mix8.llc_share"] = float64(llcT.Nanoseconds()) / tot
	out["ledger.fig9-mix8.dram_share"] = float64(dramT.Nanoseconds()) / tot
	out["tracing.overhead"] = tot/float64(plain.Nanoseconds()) - 1
	return out, nil
}

// designRun is one design's plain and recorded runs of the M16 cell.
type designRun struct {
	plain, traced time.Duration
	res           cachesim.Results
	rec           *recorder
	events        []int // trace events each core consumed
}

// recordMix runs design d's M16 cell untraced, checks its Results, then
// runs it again with the LLC recorded and the trace events counted; the
// recording must not move a byte of the Results.
func recordMix(r *runner, d experiments.Design) (*designRun, error) {
	r.attempted++
	sys, err := buildMix(d, r.seed)
	if err != nil {
		return nil, err
	}
	res, plain, err := runSim(r, sys)
	if err != nil {
		return nil, err
	}
	sum, err := digest(res)
	if err != nil {
		return nil, err
	}
	r.agree(string(d), sum, r.mixPin(d), 1)

	llc, err := mixLLC(d, r.seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(llc, 0)
	var gens []*countingGen
	sys, err = newMixSystem(rec, r.seed, func(g trace.Generator) trace.Generator {
		c := &countingGen{Generator: g}
		gens = append(gens, c)
		return c
	})
	if err != nil {
		return nil, err
	}
	recRes, traced, err := runSim(r, sys)
	if err != nil {
		return nil, err
	}
	if recSum, err := digest(recRes); err != nil {
		return nil, err
	} else if recSum != sum {
		r.fail(1, "%s: recording the LLC changed the Results", d)
	}
	events := make([]int, len(gens))
	for c, g := range gens {
		events[c] = g.n
	}
	return &designRun{plain: plain, traced: traced, res: res, rec: rec, events: events}, nil
}

// replayFront regenerates each core's trace events alone (timed as the
// trace layer) and walks them through fresh private caches (timed as the
// private layer). It returns both times, the L1D and L2 hit rates over
// the walk, and the LLC stream each core's walk issued.
func replayFront(r *runner, events []int) (traceT, privT time.Duration, l1Rate, l2Rate float64, streams [][]llcOp, err error) {
	benches, err := mixM16()
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	p := cachesim.DefaultCoreParams()
	var buf []trace.Event
	var l1Hits, l1Acc, l2Hits, l2Acc uint64
	streams = make([][]llcOp, len(events))
	for c, n := range events {
		prof, err := trace.Lookup(benches[c])
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		g, err := trace.NewGenerator(prof, c, r.seed)
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		l1d, l2, err := privateCaches(p, r.seed, c)
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		buf = slices.Grow(buf[:0], n)[:n]
		runtime.GC()
		t := time.Now()
		for i := range buf {
			buf[i] = g.Next()
		}
		traceT += time.Since(t)
		t = time.Now()
		streams[c] = replayPrivate(l1d, l2, uint8(c), buf, nil)
		privT += time.Since(t)
		s1, s2 := l1d.StatsSnapshot(), l2.StatsSnapshot()
		l1Hits, l1Acc = l1Hits+s1.DataHits, l1Acc+s1.Accesses
		l2Hits, l2Acc = l2Hits+s2.DataHits, l2Acc+s2.Accesses
	}
	return traceT, privT, ratio(float64(l1Hits), float64(l1Acc)), ratio(float64(l2Hits), float64(l2Acc)), streams, nil
}

// dramTraffic counts the DRAM operations a recorded LLC stream issues.
func dramTraffic(ops []llcOp) uint64 {
	var n uint64
	for _, op := range ops {
		n += uint64(op.nwb)
		if op.kind == kindRead && op.miss {
			n++
		}
	}
	return n
}
