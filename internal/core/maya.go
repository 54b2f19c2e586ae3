// Package core implements the Maya cache — the paper's primary
// contribution: a storage-efficient, secure, fully-associative-by-illusion
// last-level cache.
//
// Maya decouples a skewed-associative tag store from a *smaller* data
// store. Each tag entry carries a priority bit: priority-0 entries hold a
// tag only (reuse detectors, no data), priority-1 entries point into the
// data store via a forward pointer (FPTR), and the data store points back
// with a reverse pointer (RPTR). Lines are installed as priority-0 on a
// demand miss and only earn a data entry when they are re-referenced —
// filtering out the >80% of LLC fills that are dead on arrival. Extra
// invalid tag ways per skew plus load-aware skew selection guarantee that
// installs essentially never cause a set-associative eviction (SAE), and
// two global random eviction policies (tag eviction for priority-0,
// data eviction for priority-1) keep the population of each tag class
// constant so an attacker observes only globally random evictions.
package core

import (
	"fmt"
	"math"

	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/prince"
	"mayacache/internal/probe"
	"mayacache/internal/rng"
)

// auditPeriod is how often (in accesses) a mayacheck build runs the full
// O(tags) Audit from the access path. Cheap O(1) assertions on the
// FPTR/RPTR indirection run on every data-store operation regardless.
const auditPeriod = 4096

// Tag states (Fig 3 of the paper).
const (
	stInvalid uint8 = iota
	stP0            // valid, priority 0: tag only, no data
	stP1            // valid, priority 1: tag + data
)

// Config parameterizes a Maya cache. The paper's default 12MB configuration
// is DefaultConfig.
type Config struct {
	// SetsPerSkew is the number of tag sets in each skew (16K default).
	SetsPerSkew int
	// Skews is the number of tag-store skews (2 default).
	Skews int
	// BaseWays is the number of base ways per skew per set; the data
	// store holds SetsPerSkew*Skews*BaseWays entries (6 default).
	BaseWays int
	// ReuseWays per skew bound the steady-state population of priority-0
	// entries (3 default).
	ReuseWays int
	// InvalidWays per skew are the always-available invalid tags that
	// prevent SAEs (6 default).
	InvalidWays int
	// Seed drives all randomness (keys and eviction choices).
	Seed uint64
	// Hasher overrides the index function; nil selects the PRINCE
	// randomizer (3-cycle latency, charged via LookupPenalty).
	Hasher cachemodel.IndexHasher
	// RekeyOnSAE refreshes the keys and flushes the cache when an SAE
	// occurs, per the paper's key-management policy.
	RekeyOnSAE bool
}

// DefaultConfig returns the paper's 12MB Maya configuration, the Maya row
// at 8 cores: 2 skews x 16K sets x (6 base + 3 reuse + 6 invalid) ways,
// 192K data entries.
func DefaultConfig(seed uint64) Config {
	return config(cachemodel.Maya, 8*cachemodel.DefaultSetsPerCore, seed, nil)
}

// tagEntry is the design's part of a tag: the store (probe.Skewed) holds
// its line, SDID and validity.
type tagEntry struct {
	fptr   int32 // data-store index; -1 when state != stP1
	p0pos  int32 // position in p0List; -1 when state != stP0
	core   uint8
	state  uint8
	dirty  bool
	reused bool // data entry re-referenced after its fill
}

// Maya implements cachemodel.LLC.
type Maya struct {
	cfg     Config
	ways    int // tag ways per skew per set
	penalty int // LookupPenalty's cycles
	// st is the skewed tag store (hasher, memo, each tag's line, SDID and
	// validity, valid counts) and the data store; tags holds the rest of
	// each tag's state beside it, indexed alike: skews, then sets, then
	// ways.
	st     probe.Skewed
	tags   []tagEntry
	p0List []int32 // dense list of tag indices in state P0
	p0Cap  int     // steady-state priority-0 population; the data store bounds priority-1

	r     *rng.Rand
	stats cachemodel.Stats
	wbBuf []cachemodel.WritebackOut //mayavet:ignore snapshotfields -- per-call output buffer; dead between accesses
	// candBuf collects priority-0 eviction candidates during an SAE.
	candBuf []int32
}

// NewChecked constructs a Maya cache from cfg, returning an error wrapping
// cachemodel.ErrBadConfig when the geometry is invalid.
func NewChecked(cfg Config) (*Maya, error) {
	if cfg.SetsPerSkew <= 0 || cfg.SetsPerSkew&(cfg.SetsPerSkew-1) != 0 {
		return nil, cachemodel.BadConfigf("core: SetsPerSkew must be a positive power of two, got %d", cfg.SetsPerSkew)
	}
	if cfg.Skews < 2 {
		return nil, cachemodel.BadConfigf("core: Maya requires at least two skews, got %d", cfg.Skews)
	}
	if cfg.BaseWays <= 0 || cfg.ReuseWays < 0 || cfg.InvalidWays < 0 {
		return nil, cachemodel.BadConfigf("core: invalid way configuration (base %d, reuse %d, invalid %d)",
			cfg.BaseWays, cfg.ReuseWays, cfg.InvalidWays)
	}
	ways := cfg.BaseWays + cfg.ReuseWays + cfg.InvalidWays
	nTags := cfg.Skews * cfg.SetsPerSkew * ways
	nData := cfg.Skews * cfg.SetsPerSkew * cfg.BaseWays
	// FPTR/RPTR and the dense-list positions are int32: every tag index is
	// < nTags and every data index or list position is < nData, so this
	// single geometry check bounds all narrowing conversions below.
	if nTags > math.MaxInt32 {
		return nil, cachemodel.BadConfigf("core: geometry with %d tag entries overflows int32 indices", nTags)
	}
	ar := probe.NewArena(arenaBytes(cfg))
	m := &Maya{
		cfg:     cfg,
		ways:    ways,
		penalty: prince.LatencyCycles + 1,
		st:      probe.NewSkewed(ar, "maya", cfg.Hasher, cfg.Skews, cfg.SetsPerSkew, ways, nData, cfg.Seed),
		tags:    probe.Alloc[tagEntry](ar, nTags),
		p0List:  probe.Alloc[int32](ar, p0ListCap(cfg))[:0],
		p0Cap:   cfg.Skews * cfg.SetsPerSkew * cfg.ReuseWays,
		r:       rng.New(cfg.Seed ^ 0x4d617961), // "Maya"
		candBuf: make([]int32, 0, ways),
	}
	if cfg.ReuseWays >= 5 {
		// Five or more reuse ways widen the tag lookup by one cycle
		// (Fig 4).
		m.penalty++
	}
	for i := range m.tags {
		m.tags[i].fptr = -1
		m.tags[i].p0pos = -1
	}
	return m, nil
}

// p0ListCap is p0List's capacity. The list transiently reaches p0Cap+1
// between an install and the enforceP0Cap that follows it; the headroom
// keeps append from reallocating away from the arena.
func p0ListCap(cfg Config) int {
	return cfg.Skews*cfg.SetsPerSkew*max(cfg.ReuseWays, 1) + cfg.BaseWays + cfg.ReuseWays + cfg.InvalidWays
}

// arenaBytes is the flat arena NewChecked carves: the store's arrays,
// probe-hottest first, then the tags and the priority-0 list.
func arenaBytes(cfg Config) int {
	ways := cfg.BaseWays + cfg.ReuseWays + cfg.InvalidWays
	nSets := cfg.Skews * cfg.SetsPerSkew
	return probe.SkewedBytes(cfg.Hasher, cfg.Skews, cfg.SetsPerSkew, ways, nSets*cfg.BaseWays) +
		probe.Size[tagEntry](nSets*ways) + probe.Size[int32](p0ListCap(cfg))
}

// fptr reports tag ti's FPTR to the store's audit.
func (m *Maya) fptr(ti int) int32 { return m.tags[ti].fptr }

// Access implements cachemodel.LLC. The transitions follow Fig 3 and the
// bucket-and-balls event definitions of Section IV-A exactly.
func (m *Maya) Access(a cachemodel.Access) cachemodel.Result {
	m.wbBuf = m.wbBuf[:0]
	s := &m.stats
	s.Accesses++
	isWB := a.Type == cachemodel.Writeback
	if isWB {
		s.Writebacks++
	} else {
		s.Reads++
	}

	if invariant.Enabled && invariant.Every(s.Accesses, auditPeriod) {
		invariant.CheckErr(m.Audit())
	}

	ti := m.st.Lookup(a.Line, a.SDID)
	if ti >= 0 {
		e := &m.tags[ti]
		s.TagHits++
		if e.state == stP1 {
			// Data hit: no tag- or data-store state change besides
			// dirty/reuse bookkeeping (the security model skips this
			// case for exactly that reason).
			s.DataHits++
			if isWB {
				e.dirty = true
			} else {
				// Only demand hits count as reuse for dead-block
				// stats; writeback hits still update the data.
				if !e.reused {
					s.FirstDemandReuses++
					e.reused = true
				}
			}
			return cachemodel.Result{TagHit: true, DataHit: true}
		}
		// Tag hit on a priority-0 entry: promote to priority-1, fetch
		// data from memory (still a miss), and perform global random
		// data eviction if the data store is full.
		s.TagOnlyHits++
		s.Misses++
		if isWB {
			s.WritebackMisses++
		} else {
			s.DemandMisses++
		}
		m.promote(ti, isWB, a.Core)
		return cachemodel.Result{TagHit: true, DataHit: false, Writebacks: m.wbBuf}
	}

	// Tag miss.
	s.Misses++
	if isWB {
		s.WritebackMisses++
	} else {
		s.DemandMisses++
	}
	sae := m.install(a, isWB)
	if sae {
		s.SAEs++
		if m.cfg.RekeyOnSAE {
			m.rekeyAndFlush()
		}
	}
	return cachemodel.Result{SAE: sae, Writebacks: m.wbBuf}
}

// install handles a tag miss: fill a tag in the less loaded of the line's
// candidate sets (load-aware skew selection over the sets the missed
// lookup resolved), making room with an SAE if both are full. A demand
// read fills a priority-0 tag; a writeback fills a dirty priority-1 tag
// with a data entry, performing global random data eviction if the data
// store is full. Global random tag eviction then restores the priority-0
// cap, which the fill or the eviction's downgrade may have exceeded.
// Returns whether an SAE occurred.
func (m *Maya) install(a cachemodel.Access, isWB bool) bool {
	skew, set, ok := m.st.ChooseSkew(m.r)
	if !ok {
		// Both candidate sets are full: a set-associative eviction. A
		// priority-0 entry is removed from the target set to make room
		// (the event the security analysis bounds).
		if !m.evictP0FromSet(skew, set) {
			m.evictAnyFromSet(skew, set, a.Core)
		}
	}
	ti := m.st.FreeWay(skew, set)
	e := &m.tags[ti]
	*e = tagEntry{core: a.Core, state: stP0, fptr: -1, p0pos: -1}
	if isWB {
		e.state, e.dirty = stP1, true
	} else {
		m.addP0(ti)
	}
	m.st.Fill(ti, a.Line, a.SDID)
	m.stats.Fills++
	if isWB {
		m.attachData(ti, a.Core) // may downgrade a random P1 -> P0
	}
	m.enforceP0Cap()
	return !ok
}

// promote upgrades a priority-0 entry to priority-1 (tag hit on P0),
// attaching a data entry; a random P1 is downgraded if the data store is
// full. Net priority-0 population is unchanged, so no tag eviction runs.
func (m *Maya) promote(ti int32, dirty bool, core uint8) {
	e := &m.tags[ti]
	m.removeP0(ti)
	e.state = stP1
	e.dirty = dirty
	e.reused = false // reuse tracking restarts at the data fill
	m.attachData(ti, core)
}

// attachData allocates a data entry for tag ti, evicting (downgrading) a
// random priority-1 entry first when the data store is full.
func (m *Maya) attachData(ti int32, core uint8) {
	if m.st.Full() {
		m.globalDataEviction(core)
	}
	slot := m.st.Attach(ti)
	m.tags[ti].fptr = slot
	m.stats.DataFills++
	if invariant.Enabled {
		// The FPTR/RPTR bijection must hold for the entry just linked.
		invariant.Check(m.st.Owner(slot) == ti && m.tags[ti].fptr == slot,
			"core: FPTR/RPTR link broken at slot %d tag %d", slot, ti)
	}
}

// globalDataEviction selects a uniformly random data entry, downgrades its
// owning tag to priority-0, and frees the slot (writing back dirty data).
func (m *Maya) globalDataEviction(evictorCore uint8) {
	slot := m.st.RandomSlot(m.r)
	ti := m.st.Owner(slot)
	e := &m.tags[ti]
	m.accountDataEviction(e, evictorCore)
	if e.dirty {
		m.writeback(ti)
		e.dirty = false
	}
	e.state = stP0
	e.fptr = -1
	m.addP0(ti)
	m.st.FreeData(slot)
	m.stats.GlobalDataEvictions++
}

// enforceP0Cap runs global random tag eviction while the priority-0
// population exceeds its steady-state cap (ReuseWays per skew per set on
// average). The paper's model evicts exactly one per triggering event;
// population accounting makes at most one eviction necessary here too.
func (m *Maya) enforceP0Cap() {
	for len(m.p0List) > m.p0Cap {
		ti := m.p0List[m.r.Intn(len(m.p0List))]
		m.invalidateTag(ti)
		m.stats.GlobalTagEvictions++
	}
}

// evictP0FromSet removes a random priority-0 entry from the install
// target set during an SAE (the paper removes the ball from the target
// bucket). Returns false if the set holds no priority-0 entry.
func (m *Maya) evictP0FromSet(skew, set int) bool {
	base := m.st.Base(skew, set)
	candidates := m.candBuf[:0]
	ways := m.tags[base : int(base)+m.ways]
	for w := range ways {
		if ways[w].state == stP0 {
			candidates = append(candidates, base+int32(w))
		}
	}
	if len(candidates) == 0 {
		return false
	}
	m.invalidateTag(candidates[m.r.Intn(len(candidates))])
	return true
}

// evictAnyFromSet forcibly invalidates a random valid entry in the target
// set (fallback for the measure-zero case of an SAE in a set with no
// priority-0 entries).
func (m *Maya) evictAnyFromSet(skew, set int, evictorCore uint8) {
	ti := m.st.Base(skew, set) + int32(m.r.Intn(m.ways))
	if m.tags[ti].state == stP1 {
		m.detachData(ti, evictorCore)
	}
	m.invalidateTag(ti)
}

// detachData frees the data entry of P1 tag ti (without downgrading),
// writing back dirty contents.
func (m *Maya) detachData(ti int32, evictorCore uint8) {
	e := &m.tags[ti]
	m.accountDataEviction(e, evictorCore)
	if e.dirty {
		m.writeback(ti)
		e.dirty = false
	}
	m.st.FreeData(e.fptr)
	e.fptr = -1
}

// writeback queues tag ti's dirty line for memory.
func (m *Maya) writeback(ti int32) {
	m.wbBuf = append(m.wbBuf, cachemodel.WritebackOut{Line: m.st.Line(ti), SDID: m.st.SDID(ti)})
	m.stats.WritebacksToMem++
}

func (m *Maya) accountDataEviction(e *tagEntry, evictorCore uint8) {
	if e.reused {
		m.stats.ReusedDataEvictions++
	} else {
		m.stats.DeadDataEvictions++
	}
	if e.core != evictorCore {
		m.stats.InterCoreEvictions++
	}
}

// invalidateTag removes tag ti entirely (it must not own a data entry).
func (m *Maya) invalidateTag(ti int32) {
	e := &m.tags[ti]
	if e.state == stP0 {
		m.removeP0(ti)
	}
	if invariant.Enabled {
		invariant.Check(e.fptr < 0, "core: invalidateTag on tag %d still owning data slot %d", ti, e.fptr)
	}
	*e = tagEntry{fptr: -1, p0pos: -1}
	m.st.Clear(ti)
}

func (m *Maya) addP0(ti int32) {
	m.tags[ti].p0pos = int32(len(m.p0List)) //mayavet:checked len(p0List) <= nTags <= MaxInt32 (New)
	m.p0List = append(m.p0List, ti)
}

func (m *Maya) removeP0(ti int32) {
	pos := m.tags[ti].p0pos
	last := int32(len(m.p0List) - 1)
	moved := m.p0List[last]
	m.p0List[pos] = moved
	m.tags[moved].p0pos = pos
	m.p0List = m.p0List[:last]
	m.tags[ti].p0pos = -1
}

// rekeyAndFlush implements the paper's key-management response to an SAE:
// refresh the mapping keys and flush the entire cache.
func (m *Maya) rekeyAndFlush() {
	for ti := range int32(len(m.tags)) {
		e := &m.tags[ti]
		if e.state == stInvalid {
			continue
		}
		if e.state == stP1 {
			if e.dirty {
				m.writeback(ti)
			}
			m.st.FreeData(e.fptr)
		}
		if e.state == stP0 {
			m.removeP0(ti)
		}
		*e = tagEntry{fptr: -1, p0pos: -1}
	}
	m.st.Rekey()
	m.stats.Rekeys++
}

// Flush implements cachemodel.LLC (clflush semantics from the owning
// domain: dirty data is written back, the tag is invalidated).
func (m *Maya) Flush(line uint64, sdid uint8) bool {
	ti := m.st.Lookup(line, sdid)
	if ti < 0 {
		return false
	}
	e := &m.tags[ti]
	if e.state == stP1 {
		if e.dirty {
			m.stats.WritebacksToMem++
			e.dirty = false
		}
		m.st.FreeData(e.fptr)
		e.fptr = -1
	}
	m.invalidateTag(ti)
	m.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (m *Maya) Probe(line uint64, sdid uint8) (bool, bool) {
	ti := m.st.Lookup(line, sdid)
	if ti < 0 {
		return false, false
	}
	return true, m.tags[ti].state == stP1
}

// LookupPenalty implements cachemodel.LLC: 3 cycles of PRINCE plus 1 cycle
// of tag-to-data indirection, plus 1 for the wider tag lookup of five or
// more reuse ways.
func (m *Maya) LookupPenalty() int { return m.penalty }

// StatsSnapshot implements cachemodel.LLC.
func (m *Maya) StatsSnapshot() cachemodel.Stats {
	s := m.stats
	s.MemoHits, s.MemoMisses = m.st.MemoCounters()
	return s
}

// ResetStats implements cachemodel.LLC.
func (m *Maya) ResetStats() {
	m.stats.Reset()
	m.st.ResetMemoCounters()
}

// Name implements cachemodel.LLC.
func (m *Maya) Name() string {
	return fmt.Sprintf("Maya-%db%dr%di", m.cfg.BaseWays, m.cfg.ReuseWays, m.cfg.InvalidWays)
}

// Geometry implements cachemodel.LLC.
func (m *Maya) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       m.cfg.Skews,
		SetsPerSkew: m.cfg.SetsPerSkew,
		WaysPerSkew: m.ways,
		DataEntries: m.st.DataEntries(),
		TagEntries:  len(m.tags),
		Decoupled:   true,
	}
}

// Population returns the current counts of priority-0, priority-1, and
// invalid tag entries (used by tests and the security experiments).
func (m *Maya) Population() (p0, p1, invalid int) {
	p0 = len(m.p0List)
	p1 = m.st.Resident()
	invalid = len(m.tags) - p0 - p1
	return
}

// Audit verifies the structural invariants of the design and returns an
// error describing the first violation: the priority states, their
// agreement with the store's validity and the p0List bijection here, then
// the store's own checks (see probe.Skewed.Audit). It is O(tags) and
// intended for tests.
func (m *Maya) Audit() error {
	p0 := 0
	for ti := range m.tags {
		e := &m.tags[ti]
		if valid := m.st.Valid(int32(ti)); valid != (e.state != stInvalid) {
			return fmt.Errorf("tag %d has state %d, but the store has it valid=%v", ti, e.state, valid)
		}
		switch e.state {
		case stInvalid:
			if e.fptr != -1 || e.p0pos != -1 {
				return fmt.Errorf("invalid tag %d has live pointers", ti)
			}
		case stP0:
			p0++
			if e.fptr != -1 {
				return fmt.Errorf("P0 tag %d has a forward pointer", ti)
			}
			if e.p0pos < 0 || int(e.p0pos) >= len(m.p0List) || m.p0List[e.p0pos] != int32(ti) {
				return fmt.Errorf("P0 tag %d has inconsistent p0pos", ti)
			}
		case stP1:
			if e.fptr < 0 {
				return fmt.Errorf("P1 tag %d has bad fptr %d", ti, e.fptr)
			}
		default:
			return fmt.Errorf("tag %d has unknown state %d", ti, e.state)
		}
	}
	if p0 != len(m.p0List) {
		return fmt.Errorf("P0 count %d != p0List length %d", p0, len(m.p0List))
	}
	if p0 > m.p0Cap {
		return fmt.Errorf("P0 count %d exceeds cap %d", p0, m.p0Cap)
	}
	return m.st.Audit(m.fptr)
}
