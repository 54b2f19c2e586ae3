package cachesim

import (
	"fmt"

	"mayacache/internal/snapshot"
)

// SystemKind identifies a full-System snapshot container.
const SystemKind = "mayasim/system/v1"

// maxOutstanding bounds a decoded per-core outstanding window. The live
// window never exceeds MSHRs entries plus the one access being appended.
func (s *System) maxOutstanding() int { return s.cfg.Core.MSHRs + 1 }

// geometry packs the identifying private-hierarchy and DRAM shape into the
// header's geometry words. LLC geometry is not duplicated here: the LLC
// section's own fixed counts reject any mismatched design shape.
func (s *System) geometry() [6]uint64 {
	return [6]uint64{
		uint64(s.cfg.Core.L1DSets), uint64(s.cfg.Core.L1DWays),
		uint64(s.cfg.Core.L2Sets), uint64(s.cfg.Core.L2Ways),
		uint64(s.cfg.DRAM.Channels), uint64(s.cfg.DRAM.BanksPerChannel),
	}
}

// Snapshottable reports whether every pluggable component (the LLC design
// and each workload generator) supports state serialization. Private
// caches, DRAM, and prefetchers always do.
func (s *System) Snapshottable() bool {
	if _, ok := s.llc.(snapshot.Stateful); !ok {
		return false
	}
	for _, c := range s.cores {
		if _, ok := c.f.gen.(snapshot.Stateful); !ok {
			return false
		}
	}
	return true
}

// EncodeState serializes the complete simulation state — run progress,
// every core's pipeline/cache/prefetcher/workload state, DRAM timing, and
// the shared LLC — into a snapshot container. Encoding only reads state,
// so taking a snapshot never perturbs the simulation.
func (s *System) EncodeState() ([]byte, error) {
	fronts := make([]*front, len(s.cores))
	for i, c := range s.cores {
		fronts[i] = c.f
	}
	var e snapshot.Encoder
	if err := s.encodeState(&e, fronts); err != nil {
		return nil, err
	}
	return e.Data(), nil
}

// encodeState appends the System container to e, with core i's private
// front read from fronts[i]: a parallel run's live fronts are ahead of
// the merge, so its snapshots read replicas at the merge position
// instead. Each section is written in place by one Writer, and nothing is
// allocated once e has room for the state.
func (s *System) encodeState(e *snapshot.Encoder, fronts []*front) error {
	llcS, ok := s.llc.(snapshot.Stateful)
	if !ok {
		return fmt.Errorf("cachesim: LLC design %q does not support snapshots", s.design)
	}
	var progress uint64
	for _, c := range s.cores {
		progress += c.retired
	}
	w := snapshot.NewWriter(e, snapshot.Header{
		Kind:      SystemKind,
		Seed:      s.cfg.Seed,
		Design:    s.design,
		Workloads: s.workloads,
		Cores:     s.cfg.Cores,
		Geometry:  s.geometry(),
		Warmup:    s.warmup,
		ROI:       s.roi,
		Phase:     s.phase,
		Progress:  progress,
	})

	w.Section("cores")
	for i, c := range s.cores {
		c.saveState(e, fronts[i].pf)
	}

	w.Section("private")
	for _, f := range fronts {
		f.l1d.SaveState(e)
		f.l2.SaveState(e)
	}

	w.Section("gens")
	for _, f := range fronts {
		gen, ok := f.gen.(snapshot.Stateful)
		if !ok {
			return fmt.Errorf("cachesim: workload %q does not support snapshots", f.gen.Name())
		}
		gen.SaveState(e)
	}

	w.Section("dram")
	s.dram.SaveState(e)

	w.Section("llc")
	llcS.SaveState(e)

	w.End()
	return nil
}

// RestoreState loads a snapshot into a freshly constructed System with
// identical configuration. Foreign snapshots are rejected with a
// MismatchError naming the first disagreeing field; damaged ones with a
// CorruptError. On success the next Run resumes from the snapshot.
func (s *System) RestoreState(data []byte) error {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	h := &snap.Header
	if h.Kind != SystemKind {
		return &snapshot.MismatchError{Field: "kind", Want: SystemKind, Got: h.Kind}
	}
	if h.Seed != s.cfg.Seed {
		return &snapshot.MismatchError{Field: "seed",
			Want: fmt.Sprint(s.cfg.Seed), Got: fmt.Sprint(h.Seed)}
	}
	if h.Design != s.design {
		return &snapshot.MismatchError{Field: "design", Want: s.design, Got: h.Design}
	}
	if h.Cores != s.cfg.Cores {
		return &snapshot.MismatchError{Field: "cores",
			Want: fmt.Sprint(s.cfg.Cores), Got: fmt.Sprint(h.Cores)}
	}
	if h.Workloads != s.workloads {
		return &snapshot.MismatchError{Field: "workloads", Want: s.workloads, Got: h.Workloads}
	}
	if want := s.geometry(); h.Geometry != want {
		return &snapshot.MismatchError{Field: "geometry",
			Want: fmt.Sprint(want), Got: fmt.Sprint(h.Geometry)}
	}
	llcS, ok := s.llc.(snapshot.Stateful)
	if !ok {
		return fmt.Errorf("cachesim: LLC design %q does not support snapshots", s.design)
	}

	section := func(name string) (*snapshot.Decoder, error) {
		sec := snap.Section(name)
		if sec == nil {
			return nil, &snapshot.CorruptError{At: "section " + name, Detail: "missing"}
		}
		return snapshot.NewDecoder(sec), nil
	}
	finish := func(d *snapshot.Decoder, name string) error {
		if err := d.Finish(); err != nil {
			return fmt.Errorf("section %s: %w", name, err)
		}
		return nil
	}

	cd, err := section("cores")
	if err != nil {
		return err
	}
	for _, c := range s.cores {
		if err := c.restoreState(cd, s); err != nil {
			return err
		}
	}
	if err := finish(cd, "cores"); err != nil {
		return err
	}

	pd, err := section("private")
	if err != nil {
		return err
	}
	for _, c := range s.cores {
		if err := c.f.l1d.RestoreState(pd); err != nil {
			return err
		}
		if err := c.f.l2.RestoreState(pd); err != nil {
			return err
		}
	}
	if err := finish(pd, "private"); err != nil {
		return err
	}

	gd, err := section("gens")
	if err != nil {
		return err
	}
	for _, c := range s.cores {
		gen, ok := c.f.gen.(snapshot.Stateful)
		if !ok {
			return fmt.Errorf("cachesim: workload %q does not support snapshots", c.f.gen.Name())
		}
		if err := gen.RestoreState(gd); err != nil {
			return err
		}
	}
	if err := finish(gd, "gens"); err != nil {
		return err
	}

	dd, err := section("dram")
	if err != nil {
		return err
	}
	if err := s.dram.RestoreState(dd); err != nil {
		return err
	}
	if err := finish(dd, "dram"); err != nil {
		return err
	}

	ld, err := section("llc")
	if err != nil {
		return err
	}
	if err := llcS.RestoreState(ld); err != nil {
		return err
	}
	if err := finish(ld, "llc"); err != nil {
		return err
	}

	s.warmup, s.roi, s.phase = h.Warmup, h.ROI, h.Phase
	s.started = true
	s.spent = false // the restored state is coherent; runs may proceed
	return nil
}

// saveState serializes one core's pipeline scheduling state and the
// given prefetcher (the core's own, or a replica's in a parallel run —
// pf lives in the timing-independent front, unlike the drive loop's
// fields above it). The outstanding window is written compacted (from
// outHead) — only the live entries affect future behaviour.
func (c *core) saveState(e *snapshot.Encoder, pf *prefetcher) {
	e.U64(c.clock)
	e.Int(c.subIssue)
	win := c.outstanding[c.outHead:]
	e.Count(len(win))
	for _, t := range win {
		e.U64(t)
	}
	e.U64(c.retired)
	e.U64(c.target)
	e.Bool(c.done)
	e.U64(c.roiStartClock)
	e.U64(c.roiStartRetired)
	if pf == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Count(len(pf.entries))
	for i := range pf.entries {
		se := &pf.entries[i]
		e.U64(se.region)
		e.I32(se.lastOffset)
		e.I32(se.stride)
		e.I8(se.confidence)
		e.Bool(se.valid)
	}
	e.U64(pf.issued)
}

func (c *core) restoreState(d *snapshot.Decoder, s *System) error {
	c.clock = d.U64()
	c.subIssue = d.Int()
	n := d.Count(s.maxOutstanding())
	c.outstanding = c.outstanding[:0]
	c.outHead = 0
	for i := 0; i < n; i++ {
		c.outstanding = append(c.outstanding, d.U64())
	}
	c.retired = d.U64()
	c.target = d.U64()
	c.done = d.Bool()
	c.roiStartClock = d.U64()
	c.roiStartRetired = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if c.subIssue < 0 || c.subIssue >= s.cfg.Core.RetireWidth {
		d.Fail("core", "subIssue %d outside retire width %d", c.subIssue, s.cfg.Core.RetireWidth)
		return d.Err()
	}
	if c.roiStartClock > c.clock || c.roiStartRetired > c.retired {
		d.Fail("core", "ROI start beyond current progress")
		return d.Err()
	}
	hasPF := d.Bool()
	pf := c.f.pf
	if hasPF != (pf != nil) {
		d.Fail("core", "prefetcher presence mismatch")
		return d.Err()
	}
	if !hasPF {
		return d.Err()
	}
	if !d.FixedCount(len(pf.entries), "prefetch table") {
		return d.Err()
	}
	for i := range pf.entries {
		se := &pf.entries[i]
		se.region = d.U64()
		se.lastOffset = d.I32()
		se.stride = d.I32()
		se.confidence = d.I8()
		se.valid = d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if se.confidence < 0 || se.confidence > 4 {
			d.Fail("prefetch table", "entry %d confidence %d out of range", i, se.confidence)
			return d.Err()
		}
	}
	pf.issued = d.U64()
	return d.Err()
}

// SaveState serializes the DRAM timing state and counters.
func (d *DRAM) SaveState(e *snapshot.Encoder) {
	e.Count(len(d.banks))
	for i := range d.banks {
		b := &d.banks[i]
		e.U64(b.openRow)
		e.Bool(b.hasRow)
		e.U64(b.nextFree)
	}
	e.Count(len(d.chanFree))
	for _, v := range d.chanFree {
		e.U64(v)
	}
	e.U64(d.reads)
	e.U64(d.writes)
	e.U64(d.rowHits)
	e.U64(d.rowMisses)
}

// RestoreState implements snapshot.Stateful for the DRAM model.
func (d *DRAM) RestoreState(dec *snapshot.Decoder) error {
	if dec.FixedCount(len(d.banks), "dram banks") {
		for i := range d.banks {
			b := &d.banks[i]
			b.openRow = dec.U64()
			b.hasRow = dec.Bool()
			b.nextFree = dec.U64()
		}
	}
	if dec.FixedCount(len(d.chanFree), "dram channels") {
		for i := range d.chanFree {
			d.chanFree[i] = dec.U64()
		}
	}
	d.reads = dec.U64()
	d.writes = dec.U64()
	d.rowHits = dec.U64()
	d.rowMisses = dec.U64()
	return dec.Err()
}

var _ snapshot.Stateful = (*DRAM)(nil)
