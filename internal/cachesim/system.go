// Package cachesim is the trace-driven, cycle-approximate multi-core
// simulator this reproduction uses in place of ChampSim. It models the
// paper's Table V system: out-of-order cores abstracted as a retire-width
// pipeline with a 512-entry ROB window and MSHR-bounded memory-level
// parallelism, per-core L1D and L2 caches, a shared pluggable
// LLC (any cachemodel.LLC), and a banked DDR4-like DRAM.
//
// Fidelity notes (see DESIGN.md §4): instruction fetch is assumed perfect
// (no L1I model — the synthetic traces carry no code addresses), timing is
// approximate rather than cycle-accurate, and cores interleave on their
// local clocks. The evaluation's comparisons are between LLC designs under
// identical everything-else, which this preserves.
package cachesim

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/mc"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// llcAuditPeriod is how often (in drive-loop steps) a mayacheck build
// audits the shared LLC's structural invariants.
const llcAuditPeriod = 1 << 16

// cancelCheckPeriod is how often (in drive-loop steps) the simulation
// polls its context for cancellation. Checking every step would put an
// atomic load on the hot path; every 8K steps bounds the cancellation
// latency to well under a millisecond of wall time while costing nothing
// measurable.
const cancelCheckPeriod = 1 << 13

// auditor is implemented by LLC designs that can self-verify (Maya,
// Mirage); the drive loop audits them periodically under -tags mayacheck.
type auditor interface {
	Audit() error
}

// CoreParams describes one core and its private hierarchy (Table V).
type CoreParams struct {
	RetireWidth int // instructions retired per cycle (4; bounds gap cost)
	ROB         int // reorder-buffer entries (512)
	MSHRs       int // outstanding LLC-bound misses per core (64)

	L1DSets, L1DWays int
	L1DLatency       uint64 // 5 cycles

	L2Sets, L2Ways int
	L2Latency      uint64 // 10 cycles

	LLCLatency uint64 // 24 cycles base

	// Prefetch configures the L1D stride prefetcher (IPCP substitute);
	// zero Degree disables it.
	Prefetch PrefetchConfig
}

// DefaultCoreParams returns the paper's core configuration. The 48KB
// 12-way L1D and 512KB 8-way L2 match Table V.
func DefaultCoreParams() CoreParams {
	return CoreParams{
		RetireWidth: 4,
		ROB:         512,
		MSHRs:       64,
		L1DSets:     64, L1DWays: 12, L1DLatency: 5,
		L2Sets: 1024, L2Ways: 8, L2Latency: 10,
		LLCLatency: 24,
	}
}

// Config assembles a full system.
type Config struct {
	Cores int
	Core  CoreParams
	LLC   cachemodel.LLC
	DRAM  DRAMConfig
	// Seed drives private-cache policy randomness.
	Seed uint64
}

// core holds one core's simulation state: its private front (generator,
// L1D, L2, prefetcher) and the timing state the drive loop owns.
type core struct {
	id    int
	f     *front
	clock uint64
	// subIssue accumulates fractional cycles from gap instructions.
	subIssue int
	// outstanding holds completion times of in-flight long-latency
	// accesses (FIFO; the window models ROB/MSHR-bounded MLP). head
	// indexes the oldest entry; the slice is compacted when it drifts.
	outstanding []uint64
	outHead     int
	retired     uint64
	target      uint64
	done        bool
	// roiStart* snapshot the ROI beginning for IPC computation.
	roiStartClock   uint64
	roiStartRetired uint64
}

// System is a runnable multi-core simulation.
type System struct {
	cfg   Config
	cores []*core
	llc   cachemodel.LLC
	dram  *DRAM
	// design and workloads identify the run in snapshot headers: the
	// LLC's name and the comma-joined per-core generator names.
	design, workloads string

	// Run-progress state: which phase the current run is in and its
	// per-core instruction budgets. Serialized by EncodeState so a
	// restored System can resume mid-phase.
	warmup, roi uint64
	phase       uint8 // snapshot.PhaseWarmup or snapshot.PhaseROI
	started     bool  // a run is in progress (Run began or RestoreState succeeded)
	// spent marks the state as consumed by a failed or cancelled run:
	// simulation state is never rewound, so continuing from it would
	// silently compute garbage. Run returns ErrSpent instead; RestoreState
	// clears the mark (a restore installs coherent state).
	spent bool

	auto *AutoSnapshot

	// Progress reporting (not serialized: a restored System starts a new
	// tracker epoch; progressSent rebases on the restored retired counts
	// at the first report).
	progress     *mc.Tracker
	progressSent uint64
}

// AutoSnapshot configures in-run state capture. The drive loop saves the
// System every Every steps (0 disables periodic saves) and, when Trigger
// fires, writes one final snapshot and stops with snapshot.ErrStopped.
type AutoSnapshot struct {
	Every   uint64
	Trigger *snapshot.Trigger
	// Save persists one snapshot: during the call it calls encode once,
	// which appends the System container to an Encoder the sink owns. A
	// Cell's is its reused buffer, which the next save rewrites once the
	// write of this one is done; the write may outlive Save (see
	// snapshot.Cell). encode reads the live System and must not be called
	// after Save returns. A failure aborts the run.
	Save func(encode func(*snapshot.Encoder) error) error
}

// SetAutoSnapshot installs (or, with nil, removes) auto-snapshotting for
// subsequent runs.
func (s *System) SetAutoSnapshot(a *AutoSnapshot) { s.auto = a }

// SetProgress installs (or, with nil, removes) a progress tracker for
// subsequent runs. The drive loop forwards cumulative retired-instruction
// deltas (summed across cores, warmup included) at the same cadence as
// the cancellation poll, plus once at phase end, so a streaming consumer
// sees liveness without a per-step atomic. Resumed runs report only
// instructions retired in this process: the tracker baseline is the
// System's state at SetProgress time.
func (s *System) SetProgress(t *mc.Tracker) {
	s.progress = t
	s.progressSent = 0
	if t != nil {
		for _, c := range s.cores {
			s.progressSent += c.retired
		}
	}
}

// reportProgress forwards retired-instruction growth to the tracker.
func (s *System) reportProgress() {
	if s.progress == nil {
		return
	}
	var sum uint64
	for _, c := range s.cores {
		sum += c.retired
	}
	if sum > s.progressSent {
		s.progress.Add(sum - s.progressSent)
		s.progressSent = sum
	}
}

// New assembles a system; workloads must have exactly cfg.Cores
// generators (one per core).
func New(cfg Config, workloads []trace.Generator) *System {
	if cfg.Cores <= 0 {
		panic("cachesim: Cores must be positive")
	}
	if len(workloads) != cfg.Cores {
		panic(fmt.Sprintf("cachesim: %d workloads for %d cores", len(workloads), cfg.Cores))
	}
	if cfg.LLC == nil {
		panic("cachesim: no LLC provided")
	}
	s := &System{cfg: cfg, llc: cfg.LLC, dram: NewDRAM(cfg.DRAM), design: cfg.LLC.Name()}
	names := make([]string, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		f := &front{id: i, gen: workloads[i], l1d: s.newL1D(i), l2: s.newL2(i), pf: newPrefetcher(cfg.Core.Prefetch)}
		s.cores = append(s.cores, &core{id: i, f: f, outstanding: make([]uint64, 0, cfg.Core.MSHRs)})
		names[i] = workloads[i].Name()
	}
	s.workloads = strings.Join(names, ",")
	return s
}

// newL1D builds core i's L1D. Factored so snapshot replicas (parallel
// runs) construct byte-identical twins.
func (s *System) newL1D(i int) *baseline.SetAssoc {
	return mustCache(baseline.NewChecked(baseline.Config{
		Sets: s.cfg.Core.L1DSets, Ways: s.cfg.Core.L1DWays,
		Replacement: baseline.LRU, Seed: s.cfg.Seed + uint64(i)*2 + 1,
		NamePrefix: fmt.Sprintf("L1D[%d]", i),
	}))
}

// newL2 builds core i's L2.
func (s *System) newL2(i int) *baseline.SetAssoc {
	return mustCache(baseline.NewChecked(baseline.Config{
		Sets: s.cfg.Core.L2Sets, Ways: s.cfg.Core.L2Ways,
		Replacement: baseline.LRU, Seed: s.cfg.Seed + uint64(i)*2 + 2,
		NamePrefix: fmt.Sprintf("L2[%d]", i),
	}))
}

// mustCache panics on private-cache construction errors: the geometries
// come from CoreParams, so a failure is a caller bug exactly like the
// panics New already raises for bad Config fields.
func mustCache(c *baseline.SetAssoc, err error) *baseline.SetAssoc {
	if err != nil {
		panic(fmt.Sprintf("cachesim: private cache: %v", err))
	}
	return c
}

// CoreResult reports one core's ROI statistics.
type CoreResult struct {
	Core         int
	Workload     string
	Instructions uint64
	Cycles       uint64
	IPC          float64
}

// Results aggregates a run.
type Results struct {
	Cores    []CoreResult
	LLCStats cachemodel.Stats
	// LLCAccessesROI etc. come from the design's counters (reset at ROI
	// start). DRAM row-buffer behaviour:
	DRAMReads, DRAMWrites, DRAMRowHits, DRAMRowMisses uint64
}

// MPKI returns the LLC misses per kilo-instruction over all cores.
func (r Results) MPKI() float64 {
	var instr uint64
	for _, c := range r.Cores {
		instr += c.Instructions
	}
	if instr == 0 {
		return 0
	}
	return float64(r.LLCStats.Misses) * 1000 / float64(instr)
}

// IPCSum returns the sum of per-core IPCs (throughput metric).
func (r Results) IPCSum() float64 {
	sum := 0.0
	for _, c := range r.Cores {
		sum += c.IPC
	}
	return sum
}

// runWith starts a fresh run with the given per-phase budgets, serial
// when par <= 1 and in the deterministic parallel mode otherwise.
func (s *System) runWith(ctx context.Context, warmup, roi uint64, par int) (Results, error) {
	if s.spent {
		return Results{}, ErrSpent
	}
	s.warmup, s.roi = warmup, roi
	s.phase = snapshot.PhaseWarmup
	s.started = true
	for _, c := range s.cores {
		c.target = warmup
		c.done = warmup == 0
	}
	return s.runFrom(ctx, par)
}

// resumeWith continues the current run — one restored by RestoreState,
// mid-warmup or mid-ROI — to its end.
func (s *System) resumeWith(ctx context.Context, par int) (Results, error) {
	if s.spent {
		return Results{}, ErrSpent
	}
	return s.runFrom(ctx, par)
}

// runFrom drives the remaining phases of the current run and maintains
// the spent/started lifecycle: an error of any kind (cancellation,
// deadline stop, snapshot-save failure) leaves partial state behind and
// marks the System spent.
func (s *System) runFrom(ctx context.Context, par int) (Results, error) {
	res, err := s.runPhases(ctx, par)
	if err != nil {
		s.spent = true
		return Results{}, err
	}
	s.started = false
	return res, nil
}

// runPhases drives the remaining phases with each step's record taken
// from a source built for par (see records).
func (s *System) runPhases(ctx context.Context, par int) (Results, error) {
	src, err := s.records(par)
	if err != nil {
		return Results{}, err
	}
	defer src.join()
	if s.phase == snapshot.PhaseWarmup {
		if err := s.drive(ctx, src); err != nil {
			return Results{}, err
		}
		s.beginROI(src.inline())
	}
	if err := s.drive(ctx, src); err != nil {
		return Results{}, err
	}
	s.reportProgress()
	// Every record the budgets allow was produced and consumed, so the
	// live fronts hold the exact end-of-run private state. Join any
	// workers before reading it.
	src.join()
	return s.collect(), nil
}

// beginROI transitions warmup → ROI at the global phase barrier: reset
// stats, snapshot clocks. Fronts stepped inline reset their private stats
// here; a parallel run's workers reset their own at their local boundary
// (front.localBeginROI).
func (s *System) beginROI(inline bool) {
	s.phase = snapshot.PhaseROI
	s.llc.ResetStats()
	s.dram.ResetCounters()
	for _, c := range s.cores {
		if inline {
			c.f.localBeginROI()
		}
		c.roiStartClock = c.clock
		c.roiStartRetired = c.retired
		c.target = c.retired + s.roi
		c.done = false
	}
}

func (s *System) collect() Results {
	res := Results{LLCStats: s.llc.StatsSnapshot()}
	res.DRAMReads, res.DRAMWrites, res.DRAMRowHits, res.DRAMRowMisses = s.dram.Counters()
	for _, c := range s.cores {
		instr := c.retired - c.roiStartRetired
		cycles := c.clock - c.roiStartClock
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(instr) / float64(cycles)
		}
		res.Cores = append(res.Cores, CoreResult{
			Core:         c.id,
			Workload:     c.f.gen.Name(),
			Instructions: instr,
			Cycles:       cycles,
			IPC:          ipc,
		})
	}
	return res
}

// drive interleaves cores by local clock until every core reaches target,
// applying each laggard's next record from src. It returns ctx.Err() if
// the context is cancelled mid-phase, and snapshot.ErrStopped if the
// auto-snapshot trigger fired (after writing the deadline snapshot).
func (s *System) drive(ctx context.Context, src *recordSource) error {
	encode := func(e *snapshot.Encoder) error { return s.encodeState(e, src.fronts(s)) }
	save := func() error { return s.auto.Save(encode) }
	var steps uint64
	for {
		// Pick the laggard core still running (first core in index order
		// with the strictly smallest clock) and the runner-up threshold:
		// the clock/index the laggard must stay under to remain selected.
		var next, ru *core
		nextIdx, ruIdx := -1, -1
		for i, c := range s.cores {
			if c.done {
				continue
			}
			switch {
			case next == nil || c.clock < next.clock:
				ru, ruIdx = next, nextIdx
				next, nextIdx = c, i
			case ru == nil || c.clock < ru.clock:
				ru, ruIdx = c, i
			}
		}
		if next == nil {
			return nil
		}
		// Step the laggard until a rescan would pick a different core:
		// other cores' clocks don't change while next runs, so next stays
		// selected while its clock is below the runner-up's (or equal,
		// when next has the lower index — the tie-break the scan applies).
		// With no runner-up left, next runs to completion.
		for ru == nil || next.clock < ru.clock || (next.clock == ru.clock && nextIdx < ruIdx) {
			steps++
			if steps%cancelCheckPeriod == 0 {
				s.reportProgress()
				// The trigger outranks plain cancellation: a deadline stop
				// must persist its snapshot before the context unwinds.
				if s.auto != nil && s.auto.Trigger.Fired() {
					if err := save(); err != nil {
						return err
					}
					return snapshot.ErrStopped
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if s.auto != nil && s.auto.Every > 0 && steps%s.auto.Every == 0 {
				if err := save(); err != nil {
					return err
				}
			}
			if invariant.Enabled {
				if invariant.Every(steps, llcAuditPeriod) {
					if a, ok := s.llc.(auditor); ok {
						invariant.CheckErr(a.Audit())
					}
				}
			}
			gap, kind, ops, err := src.next(next)
			if err != nil {
				return err
			}
			s.applyStep(next, gap, kind, ops)
			if next.retired >= next.target {
				next.drain()
				next.done = true
				break
			}
		}
	}
}

// applyStep advances core c by one step record: clock/retired accounting,
// the recorded shared LLC/DRAM operations in order, and the ROB/MSHR
// outstanding window — everything a step touches outside the core's
// private front.
func (s *System) applyStep(c *core, gap int32, kind uint8, ops []sharedOp) {
	// Gap instructions cost gap/retireWidth cycles (retire, the narrower of
	// Table V's 6-wide issue and 4-wide retire, bounds steady-state
	// throughput; issue width is not modelled). subIssue is always
	// non-negative, so shift/mask equals div/mod for power-of-two widths.
	width := s.cfg.Core.RetireWidth
	c.subIssue += int(gap)
	if width&(width-1) == 0 {
		c.clock += uint64(c.subIssue >> uint(bits.TrailingZeros(uint(width))))
		c.subIssue &= width - 1
	} else {
		c.clock += uint64(c.subIssue / width)
		c.subIssue %= width
	}
	c.retired += uint64(gap) + 1

	p := &s.cfg.Core
	var lat uint64
	for _, op := range ops {
		switch op.kind {
		case opWB:
			r := s.llc.Access(cachemodel.Access{Line: op.line, Type: cachemodel.Writeback, SDID: op.sdid, Core: uint8(c.id)})
			s.pushWBs(c, r.Writebacks)
		case opDemand:
			llcLat := p.LLCLatency + uint64(s.llc.LookupPenalty())
			r := s.llc.Access(cachemodel.Access{Line: op.line, Type: cachemodel.Read, SDID: op.sdid, Core: uint8(c.id)})
			s.pushWBs(c, r.Writebacks)
			lat = p.L1DLatency + p.L2Latency + llcLat
			if !r.DataHit {
				// The request reaches the controller after the lookup chain.
				lat += s.dram.Read(c.clock+lat, op.line)
			}
		case opPrefetch:
			// Prefetches run asynchronously (the core never waits) but
			// fill the LLC and consume DRAM bandwidth.
			r := s.llc.Access(cachemodel.Access{Line: op.line, Type: cachemodel.Read, SDID: op.sdid, Core: uint8(c.id)})
			s.pushWBs(c, r.Writebacks)
			if !r.DataHit {
				s.dram.Read(c.clock, op.line) // bandwidth only; nothing waits
			}
		}
	}

	if kind == stepL1Hit {
		// L1 hits are fully pipelined; they cost issue slot only.
		return
	}
	if kind == stepL2Hit {
		lat = p.L1DLatency + p.L2Latency
	}
	// Long-latency access: runs under the ROB/MSHR window.
	completion := c.clock + lat
	limit := s.mlpCap(int(gap))
	for len(c.outstanding)-c.outHead >= limit {
		head := c.outstanding[c.outHead]
		c.outHead++
		if head > c.clock {
			c.clock = head
		}
	}
	if c.outHead > 64 && c.outHead*2 >= len(c.outstanding) {
		c.outstanding = append(c.outstanding[:0], c.outstanding[c.outHead:]...)
		c.outHead = 0
	}
	c.outstanding = append(c.outstanding, completion)
}

// mlpCap bounds in-flight long-latency accesses by MSHRs and by how many
// such accesses fit in the ROB given the current gap density.
func (s *System) mlpCap(gap int) int {
	byROB := s.cfg.Core.ROB / (gap + 1)
	if byROB < 1 {
		byROB = 1
	}
	if byROB > s.cfg.Core.MSHRs {
		return s.cfg.Core.MSHRs
	}
	return byROB
}

// drain waits out the outstanding window at the end of a phase.
func (c *core) drain() {
	for _, t := range c.outstanding[c.outHead:] {
		if t > c.clock {
			c.clock = t
		}
	}
	c.outstanding = c.outstanding[:0]
	c.outHead = 0
}

// pushWBs retires LLC dirty victims to memory.
func (s *System) pushWBs(c *core, wbs []cachemodel.WritebackOut) {
	for _, w := range wbs {
		s.dram.Write(c.clock, w.Line)
	}
}

// LLC exposes the design under test (for post-run inspection).
func (s *System) LLC() cachemodel.LLC { return s.llc }
