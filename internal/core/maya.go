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
	"math/bits"

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
	// ExtraLookupLatency adds cycles to LookupPenalty. The paper charges
	// one extra cycle for five or more reuse ways per skew (the wider
	// tag lookup); Fig 4's sweep sets this for those points.
	ExtraLookupLatency int
	// NoSWAR disables the packed-fingerprint SWAR probe path and scans
	// the tagLine mirror per way instead. Results are identical either
	// way; the scalar path exists for cross-checking and debugging.
	NoSWAR bool
	// NoArena allocates the design's arrays individually instead of
	// carving them from one flat arena. Layout only; results identical.
	NoArena bool
	// MemoBits sizes the epoch-tagged index memo table (probe.Memo):
	// 0 selects probe.DefaultMemoBits, negative disables memoization.
	// Speed only: a memo hit replays exactly the indexes and fingerprint
	// a direct computation would produce, so results are identical at
	// any setting (cross-checked under the mayacheck build tag). The
	// memo is silently disabled when Hasher lacks Epoch/RestoreEpoch —
	// without that purity signal cached entries could go stale.
	MemoBits int
}

// DefaultConfig returns the paper's 12MB Maya configuration: 2 skews x 16K
// sets x (6 base + 3 reuse + 6 invalid) ways, 192K data entries.
func DefaultConfig(seed uint64) Config {
	return Config{
		SetsPerSkew: 16384,
		Skews:       2,
		BaseWays:    6,
		ReuseWays:   3,
		InvalidWays: 6,
		Seed:        seed,
	}
}

type tagEntry struct {
	line   uint64
	fptr   int32 // data-store index; -1 when state != stP1
	p0pos  int32 // position in p0List; -1 when state != stP0
	sdid   uint8
	core   uint8
	state  uint8
	dirty  bool
	reused bool // data entry re-referenced after its fill
}

type dataEntry struct {
	rptr    int32 // back-pointer to the owning tag index
	usedPos int32 // position in dataUsed
	valid   bool
}

// Maya implements cachemodel.LLC.
type Maya struct {
	cfg      Config
	ways     int // tag ways per skew per set
	sets     int
	skews    int
	tags     []tagEntry // skews*sets*ways
	validCnt []uint16   // valid tags per (skew,set) for load-aware selection

	// invMask[skewSet] has bit w set when way w of that set is invalid, so
	// freeWay is a TrailingZeros instead of a tagEntry scan (the lowest set
	// bit is exactly the first invalid way the scan would return). Nil when
	// ways > 64 (freeWay falls back to scanning). Derived state: maintained
	// at every validity flip and rebuilt on snapshot restore.
	invMask []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore

	// tagLine mirrors tags[i].line (zero when invalid) in a dense array so
	// the lookup scan touches 8 bytes per way instead of a full tagEntry;
	// candidates that match the line are verified against tagMeta — which
	// mirrors the validity and SDID of tags[i] as tagMetaOf(sdid), zero
	// when invalid — before they count as hits. P0/P1 transitions don't
	// change tagMeta, so both mirrors flip only where validity or identity
	// does. Maintained by every such writer and rebuilt on restore.
	tagLine []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore
	tagMeta []uint16 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore

	// tagFP packs one 16-bit probe fingerprint per way (probe.Fingerprint
	// of the line, 0 when invalid), fpWords words per (skew,set), so
	// lookup compares a whole set's ways in a few SWAR operations and
	// verifies candidates against tagLine/tagMeta. Nil when cfg.NoSWAR.
	tagFP   []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore
	fpWords int

	data     []dataEntry
	dataUsed []int32 // dense list of valid data slots
	dataFree []int32 // free slots (filled by flush / initial)

	p0List []int32 // dense list of tag indices in state P0
	p0Cap  int     // steady-state priority-0 population
	// p1Cap equals len(data); the data store bounds the P1 population.

	hasher cachemodel.IndexHasher
	// memo caches each line's all-skew indexes and probe fingerprint,
	// keyed by the rekey epoch (nil when disabled or when the hasher
	// gives no Epoch purity signal). Every entry is a pure function of
	// (line, epoch): rekeyAndFlush invalidates by epoch bump, restore
	// wipes the table.
	memo  *probe.Memo //mayavet:ignore snapshotfields -- derived: pure function of (line, rekey epoch); wiped on restore
	r     *rng.Rand
	stats cachemodel.Stats
	wbBuf []cachemodel.WritebackOut //mayavet:ignore snapshotfields -- per-call output buffer; dead between accesses

	// Per-access scratch, reused to keep the steady-state access path
	// allocation-free. skewIdx caches the set index lookup computed per
	// skew so the install path never re-hashes the same line; candBuf
	// collects priority-0 eviction candidates during an SAE.
	skewIdx []int32 //mayavet:ignore snapshotfields -- per-access scratch; dead between accesses
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
	nSets := cfg.Skews * cfg.SetsPerSkew
	fpWords := probe.WordsFor(ways)
	nFP := nSets * fpWords
	if cfg.NoSWAR {
		nFP = 0
	}
	// p0List transiently reaches p0Cap+1 between an install and the
	// enforceP0Cap that follows it; give it headroom so append never
	// reallocates away from the arena.
	p0ListCap := cfg.Skews*cfg.SetsPerSkew*maxInt(cfg.ReuseWays, 1) + ways
	memoBits := cachemodel.MemoBitsFor(cfg.Hasher, cfg.MemoBits)
	// One flat arena for all parallel arrays, ordered probe-hottest
	// first so lookup and install touch adjacent cache lines (the memo
	// is consulted before any probe word, so it leads). Alloc falls
	// back to standalone allocations on a nil arena (NoArena) or if the
	// sizing below ever goes stale.
	var ar *probe.Arena
	if !cfg.NoArena {
		ar = probe.NewArena(
			probe.MemoBytes(cfg.Skews, memoBits) +
				probe.Size[uint64](nFP) +
				probe.Size[uint64](nTags) + // tagLine
				probe.Size[uint16](nTags) + // tagMeta
				probe.Size[uint64](nSets) + // invMask
				probe.Size[uint16](nSets) + // validCnt
				probe.Size[tagEntry](nTags) +
				probe.Size[dataEntry](nData) +
				probe.Size[int32](2*nData+p0ListCap))
	}
	memo := probe.NewMemo(ar, cfg.Skews, memoBits)
	m := &Maya{
		memo:     memo,
		cfg:      cfg,
		ways:     ways,
		sets:     cfg.SetsPerSkew,
		skews:    cfg.Skews,
		fpWords:  fpWords,
		tagFP:    probe.Alloc[uint64](ar, nFP),
		tagLine:  probe.Alloc[uint64](ar, nTags),
		tagMeta:  probe.Alloc[uint16](ar, nTags),
		validCnt: probe.Alloc[uint16](ar, nSets),
		p0Cap:    cfg.Skews * cfg.SetsPerSkew * cfg.ReuseWays,
		r:        rng.New(cfg.Seed ^ 0x4d617961), // "Maya"
		skewIdx:  make([]int32, cfg.Skews),
		candBuf:  make([]int32, 0, ways),
	}
	if ways <= 64 {
		m.invMask = probe.Alloc[uint64](ar, nSets)
		for i := range m.invMask {
			m.invMask[i] = fullInvMask(ways)
		}
	}
	m.tags = probe.Alloc[tagEntry](ar, nTags)
	m.data = probe.Alloc[dataEntry](ar, nData)
	m.dataUsed = probe.Alloc[int32](ar, nData)[:0]
	m.dataFree = probe.Alloc[int32](ar, nData)[:0]
	m.p0List = probe.Alloc[int32](ar, p0ListCap)[:0]
	for i := range m.tags {
		m.tags[i].fptr = -1
		m.tags[i].p0pos = -1
	}
	for i := nData - 1; i >= 0; i-- {
		m.dataFree = append(m.dataFree, int32(i))
	}
	m.hasher = cfg.Hasher
	if m.hasher == nil {
		m.hasher = prince.NewRandomizer(cfg.Skews, log2(cfg.SetsPerSkew), cfg.Seed)
	}
	return m, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// tagIndex flattens (skew, set, way).
func (m *Maya) tagIndex(skew, set, way int) int32 {
	return int32((skew*m.sets+set)*m.ways + way)
}

func (m *Maya) setBase(skew, set int) int32 {
	return int32((skew*m.sets + set) * m.ways)
}

// resolveIndexes fills skewIdx with every skew's set index for line and
// returns the line's packed probe fingerprint (zero on the scalar path,
// which never consults fingerprints). The epoch-tagged memo is consulted
// first: a hit replays the cached vector without touching the hasher; a
// miss computes directly and caches the result. Under mayacheck every
// memo hit is cross-checked against the direct computation.
func (m *Maya) resolveIndexes(line uint64) uint16 {
	if m.memo != nil {
		if fp, ok := m.memo.Lookup(line, m.skewIdx); ok {
			if invariant.Enabled {
				for skew := 0; skew < m.skews; skew++ {
					invariant.Check(int(m.skewIdx[skew]) == m.hasher.Index(skew, line),
						"core: memo index diverged at skew %d for line %#x", skew, line)
				}
				invariant.Check(m.tagFP == nil || fp == probe.Fingerprint(line),
					"core: memo fingerprint diverged for line %#x", line)
			}
			return fp
		}
		fp := m.computeIndexes(line)
		m.memo.Insert(line, m.skewIdx, fp)
		return fp
	}
	return m.computeIndexes(line)
}

// computeIndexes is the direct (memo-less) index resolution.
func (m *Maya) computeIndexes(line uint64) uint16 {
	for skew := 0; skew < m.skews; skew++ {
		m.skewIdx[skew] = int32(m.hasher.Index(skew, line))
	}
	if m.tagFP == nil {
		return 0
	}
	return probe.Fingerprint(line)
}

// lookup finds the tag index of (line, sdid) or -1, searching all skews.
// As a side effect it records each skew's set index in skewIdx, so the
// install path that follows a miss (chooseSkew) never recomputes the hash —
// with the PRINCE randomizer that halves cipher invocations per miss.
//
// The SWAR path compares a whole set's ways in fpWords packed operations;
// every flagged lane is verified against the authoritative tagLine/tagMeta
// mirrors, and lanes are visited lowest-first, so the first verified hit
// is exactly the way the scalar scan would return.
func (m *Maya) lookup(line uint64, sdid uint8) int32 {
	fp := m.resolveIndexes(line)
	if m.tagFP == nil {
		return m.lookupScalar(line, sdid)
	}
	want := tagMetaOf(sdid)
	bfp := probe.Broadcast(fp)
	for skew := 0; skew < m.skews; skew++ {
		idx := int(m.skewIdx[skew])
		base := m.setBase(skew, idx)
		fpBase := (skew*m.sets + idx) * m.fpWords
		words := m.tagFP[fpBase : fpBase+m.fpWords]
		for wi := range words {
			cand := probe.Candidates(words[wi], bfp)
			for cand != 0 {
				var lane int
				lane, cand = probe.NextLane(cand)
				w := wi*probe.LanesPerWord + lane
				if w >= m.ways {
					// Padding lanes past the last way hold fingerprint 0
					// and can only flag as false positives; higher lanes
					// in this word are padding too.
					break
				}
				if ti := base + int32(w); m.tagLine[ti] == line && m.tagMeta[ti] == want {
					return ti
				}
			}
		}
	}
	return -1
}

// lookupScalar is the per-way scan the SWAR path must agree with
// (cfg.NoSWAR selects it; tests cross-check the two). It reads the set
// indexes resolveIndexes cached in skewIdx.
func (m *Maya) lookupScalar(line uint64, sdid uint8) int32 {
	want := tagMetaOf(sdid)
	for skew := 0; skew < m.skews; skew++ {
		base := m.setBase(skew, int(m.skewIdx[skew]))
		lines := m.tagLine[base : int(base)+m.ways]
		for w := range lines {
			if lines[w] == line {
				if m.tagMeta[int(base)+w] == want {
					return base + int32(w)
				}
			}
		}
	}
	return -1
}

// setFP writes tag ti's packed probe fingerprint (0 marks invalid). It is
// called everywhere tagLine/tagMeta flip validity or identity.
func (m *Maya) setFP(ti int32, fp uint16) {
	if m.tagFP == nil {
		return
	}
	skewSet := int(ti) / m.ways
	probe.Set(m.tagFP[skewSet*m.fpWords:], int(ti)-skewSet*m.ways, fp)
}

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

	ti := m.lookup(a.Line, a.SDID)
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
	var sae bool
	if isWB {
		sae = m.installP1(a)
	} else {
		sae = m.installP0(a)
	}
	if sae {
		s.SAEs++
		if m.cfg.RekeyOnSAE {
			m.rekeyAndFlush()
		}
	}
	return cachemodel.Result{SAE: sae, Writebacks: m.wbBuf}
}

// chooseSkew implements load-aware skew selection: prefer the mapped set
// with more invalid tags (fewer valid entries); break ties randomly.
// It returns (skew, set, hasInvalid). It reads the set indices cached in
// skewIdx by the lookup that precedes every install, so it must only run
// on the Access miss path (and never after a rekey within the same access).
func (m *Maya) chooseSkew() (int, int, bool) {
	bestSkew, bestSet, bestValid := -1, -1, 0
	tie := 0
	for skew := 0; skew < m.skews; skew++ {
		set := int(m.skewIdx[skew])
		v := int(m.validCnt[skew*m.sets+set])
		switch {
		case bestSkew < 0 || v < bestValid:
			bestSkew, bestSet, bestValid = skew, set, v
			tie = 1
		case v == bestValid:
			tie++
			// Reservoir-style tie break keeps the choice uniform.
			if m.r.Intn(tie) == 0 {
				bestSkew, bestSet = skew, set
			}
		}
	}
	return bestSkew, bestSet, bestValid < m.ways
}

// tagMetaOf is the tagMeta value of a valid tag owned by sdid; bit 0 is
// the validity flag, so the zero value means invalid.
func tagMetaOf(sdid uint8) uint16 {
	return uint16(sdid)<<8 | 1
}

// fullInvMask is the invMask value of a set whose ways are all invalid.
// ways == 64 shifts out to 0, and 0-1 wraps to all-ones — still correct.
func fullInvMask(ways int) uint64 {
	return uint64(1)<<uint(ways) - 1
}

// freeWay returns an invalid way in (skew,set); the caller must have
// verified one exists.
func (m *Maya) freeWay(skew, set int) int32 {
	base := m.setBase(skew, set)
	if m.invMask != nil {
		if mask := m.invMask[skew*m.sets+set]; mask != 0 {
			// The lowest set bit is the first invalid way in scan order.
			return base + int32(bits.TrailingZeros64(mask))
		}
		invariant.Check(false, "core: freeWay called on a full set (skew %d, set %d)", skew, set)
		return -1
	}
	ways := m.tags[base : int(base)+m.ways]
	for w := range ways {
		if ways[w].state == stInvalid {
			return base + int32(w)
		}
	}
	invariant.Check(false, "core: freeWay called on a full set (skew %d, set %d)", skew, set)
	return -1
}

// installP0 handles a demand tag miss: fill a priority-0 tag via
// load-aware skew selection, then run global random tag eviction if the
// priority-0 population exceeds its steady-state cap. Returns whether an
// SAE occurred.
func (m *Maya) installP0(a cachemodel.Access) bool {
	skew, set, ok := m.chooseSkew()
	sae := false
	if !ok {
		// Both candidate sets are full: a set-associative eviction. A
		// priority-0 entry is removed from one of the two sets to make
		// room (the event the security analysis bounds).
		sae = true
		if !m.evictP0FromSet(skew, set, a.Core) {
			m.evictAnyFromSet(skew, set, a.Core)
		}
	}
	ti := m.freeWay(skew, set)
	e := &m.tags[ti]
	*e = tagEntry{line: a.Line, sdid: a.SDID, core: a.Core, state: stP0, fptr: -1, p0pos: -1}
	m.tagLine[ti] = a.Line
	m.tagMeta[ti] = tagMetaOf(a.SDID)
	m.setFP(ti, probe.Fingerprint(a.Line))
	m.addP0(ti)
	m.validCnt[skew*m.sets+set]++
	m.markValid(ti)
	m.stats.Fills++
	m.enforceP0Cap()
	return sae
}

// installP1 handles a writeback tag miss: fill a dirty priority-1 tag with
// a data entry, performing global random data eviction if the data store
// is full and global random tag eviction for the resulting extra
// priority-0 entry.
func (m *Maya) installP1(a cachemodel.Access) bool {
	skew, set, ok := m.chooseSkew()
	sae := false
	if !ok {
		sae = true
		if !m.evictP0FromSet(skew, set, a.Core) {
			m.evictAnyFromSet(skew, set, a.Core)
		}
	}
	ti := m.freeWay(skew, set)
	e := &m.tags[ti]
	*e = tagEntry{line: a.Line, sdid: a.SDID, core: a.Core, state: stP1, dirty: true, fptr: -1, p0pos: -1}
	m.tagLine[ti] = a.Line
	m.tagMeta[ti] = tagMetaOf(a.SDID)
	m.setFP(ti, probe.Fingerprint(a.Line))
	m.validCnt[skew*m.sets+set]++
	m.markValid(ti)
	m.stats.Fills++
	m.attachData(ti, a.Core) // may downgrade a random P1 -> P0
	m.enforceP0Cap()         // the downgrade may have pushed P0 over cap
	return sae
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
	if len(m.dataFree) == 0 {
		m.globalDataEviction(core)
	}
	slot := m.dataFree[len(m.dataFree)-1]
	m.dataFree = m.dataFree[:len(m.dataFree)-1]
	d := &m.data[slot]
	d.valid = true
	d.rptr = ti
	d.usedPos = int32(len(m.dataUsed)) //mayavet:checked len(dataUsed) < nData <= MaxInt32 (New)
	m.dataUsed = append(m.dataUsed, slot)
	m.tags[ti].fptr = slot
	m.stats.DataFills++
	if invariant.Enabled {
		// The FPTR/RPTR bijection must hold for the entry just linked, and
		// the data store must conserve slots.
		invariant.Check(m.data[slot].rptr == ti && m.tags[ti].fptr == slot,
			"core: FPTR/RPTR link broken at slot %d tag %d", slot, ti)
		invariant.Check(len(m.dataUsed)+len(m.dataFree) == len(m.data),
			"core: data slots leak after attach: used %d + free %d != %d",
			len(m.dataUsed), len(m.dataFree), len(m.data))
	}
}

// globalDataEviction selects a uniformly random data entry, downgrades its
// owning tag to priority-0, and frees the slot (writing back dirty data).
func (m *Maya) globalDataEviction(evictorCore uint8) {
	pos := int32(m.r.Intn(len(m.dataUsed))) //mayavet:checked Intn < len(dataUsed) <= nData <= MaxInt32 (New)
	slot := m.dataUsed[pos]
	ti := m.data[slot].rptr
	e := &m.tags[ti]
	m.accountDataEviction(e, evictorCore)
	if e.dirty {
		m.wbBuf = append(m.wbBuf, cachemodel.WritebackOut{Line: e.line, SDID: e.sdid})
		m.stats.WritebacksToMem++
		e.dirty = false
	}
	e.state = stP0
	e.fptr = -1
	m.addP0(ti)
	m.freeDataSlot(slot, pos)
	m.stats.GlobalDataEvictions++
}

// enforceP0Cap runs global random tag eviction while the priority-0
// population exceeds its steady-state cap (ReuseWays per skew per set on
// average). The paper's model evicts exactly one per triggering event;
// population accounting makes at most one eviction necessary here too.
func (m *Maya) enforceP0Cap() {
	for len(m.p0List) > m.p0Cap {
		pos := int32(m.r.Intn(len(m.p0List))) //mayavet:checked Intn < len(p0List) <= nTags <= MaxInt32 (New)
		ti := m.p0List[pos]
		m.invalidateTag(ti)
		m.stats.GlobalTagEvictions++
	}
}

// evictP0FromSet removes a random priority-0 entry from one of the two
// candidate sets of line during an SAE. Returns false if neither mapped
// set holds a priority-0 entry. skew/set identify the install target; the
// paper removes the ball from the target bucket.
func (m *Maya) evictP0FromSet(skew, set int, _ uint8) bool {
	base := m.setBase(skew, set)
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
	base := m.setBase(skew, set)
	w := int32(m.r.Intn(m.ways))
	ti := base + w
	if m.tags[ti].state == stP1 {
		m.detachData(ti, evictorCore)
	}
	m.invalidateTag(ti)
}

// detachData frees the data entry of P1 tag ti (without downgrading),
// writing back dirty contents.
func (m *Maya) detachData(ti int32, evictorCore uint8) {
	e := &m.tags[ti]
	slot := e.fptr
	m.accountDataEviction(e, evictorCore)
	if e.dirty {
		m.wbBuf = append(m.wbBuf, cachemodel.WritebackOut{Line: e.line, SDID: e.sdid})
		m.stats.WritebacksToMem++
		e.dirty = false
	}
	m.freeDataSlot(slot, m.data[slot].usedPos)
	e.fptr = -1
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

func (m *Maya) freeDataSlot(slot, pos int32) {
	if invariant.Enabled {
		invariant.Check(m.data[slot].valid, "core: freeing invalid data slot %d", slot)
		invariant.Check(pos >= 0 && int(pos) < len(m.dataUsed) && m.dataUsed[pos] == slot,
			"core: dataUsed position %d does not hold slot %d", pos, slot)
	}
	last := int32(len(m.dataUsed) - 1)
	moved := m.dataUsed[last]
	m.dataUsed[pos] = moved
	m.data[moved].usedPos = pos
	m.dataUsed = m.dataUsed[:last]
	m.data[slot] = dataEntry{rptr: -1}
	m.dataFree = append(m.dataFree, slot)
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
	skewSet := int(ti) / m.ways
	m.validCnt[skewSet]--
	if m.invMask != nil {
		m.invMask[skewSet] |= 1 << uint(int(ti)-skewSet*m.ways)
	}
	*e = tagEntry{fptr: -1, p0pos: -1}
	m.tagLine[ti] = 0
	m.tagMeta[ti] = 0
	m.setFP(ti, 0)
}

// markValid clears tag ti's bit in the invalid-way mask after a fill.
func (m *Maya) markValid(ti int32) {
	if m.invMask != nil {
		skewSet := int(ti) / m.ways
		m.invMask[skewSet] &^= 1 << uint(int(ti)-skewSet*m.ways)
	}
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
	for ti := range m.tags {
		e := &m.tags[ti]
		if e.state == stInvalid {
			continue
		}
		if e.state == stP1 {
			if e.dirty {
				m.wbBuf = append(m.wbBuf, cachemodel.WritebackOut{Line: e.line, SDID: e.sdid})
				m.stats.WritebacksToMem++
			}
			m.freeDataSlot(e.fptr, m.data[e.fptr].usedPos)
			e.fptr = -1
		}
		if e.state == stP0 {
			m.removeP0(int32(ti))
		}
		*e = tagEntry{fptr: -1, p0pos: -1}
		m.tagLine[ti] = 0
		m.tagMeta[ti] = 0
	}
	for i := range m.tagFP {
		m.tagFP[i] = 0
	}
	for i := range m.validCnt {
		m.validCnt[i] = 0
	}
	for i := range m.invMask {
		m.invMask[i] = fullInvMask(m.ways)
	}
	m.hasher.Rekey()
	if m.memo != nil {
		// Every cached index vector belongs to the old keys; one epoch
		// bump retires them all.
		m.memo.Invalidate()
	}
	m.stats.Rekeys++
}

// Flush implements cachemodel.LLC (clflush semantics from the owning
// domain: dirty data is written back, the tag is invalidated).
func (m *Maya) Flush(line uint64, sdid uint8) bool {
	ti := m.lookup(line, sdid)
	if ti < 0 {
		return false
	}
	e := &m.tags[ti]
	if e.state == stP1 {
		slot := e.fptr
		if e.dirty {
			m.stats.WritebacksToMem++
			e.dirty = false
		}
		m.freeDataSlot(slot, m.data[slot].usedPos)
		e.fptr = -1
	}
	m.invalidateTag(ti)
	m.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (m *Maya) Probe(line uint64, sdid uint8) (bool, bool) {
	ti := m.lookup(line, sdid)
	if ti < 0 {
		return false, false
	}
	return true, m.tags[ti].state == stP1
}

// LookupPenalty implements cachemodel.LLC: 3 cycles of PRINCE plus 1 cycle
// of tag-to-data indirection, plus any configured extra tag-lookup cost.
func (m *Maya) LookupPenalty() int {
	return prince.LatencyCycles + 1 + m.cfg.ExtraLookupLatency
}

// StatsSnapshot implements cachemodel.LLC.
func (m *Maya) StatsSnapshot() cachemodel.Stats {
	s := m.stats
	if m.memo != nil {
		s.MemoHits, s.MemoMisses = m.memo.Counters()
	}
	return s
}

// ResetStats implements cachemodel.LLC.
func (m *Maya) ResetStats() {
	m.stats.Reset()
	if m.memo != nil {
		m.memo.ResetCounters()
	}
}

// Name implements cachemodel.LLC.
func (m *Maya) Name() string {
	return fmt.Sprintf("Maya-%db%dr%di", m.cfg.BaseWays, m.cfg.ReuseWays, m.cfg.InvalidWays)
}

// Geometry implements cachemodel.LLC.
func (m *Maya) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       m.skews,
		SetsPerSkew: m.sets,
		WaysPerSkew: m.ways,
		DataEntries: len(m.data),
		TagEntries:  len(m.tags),
		Decoupled:   true,
	}
}

// Population returns the current counts of priority-0, priority-1, and
// invalid tag entries (used by tests and the security experiments).
func (m *Maya) Population() (p0, p1, invalid int) {
	p0 = len(m.p0List)
	p1 = len(m.dataUsed)
	invalid = len(m.tags) - p0 - p1
	return
}

// Audit verifies the structural invariants of the design and returns an
// error describing the first violation. It is O(tags) and intended for
// tests.
func (m *Maya) Audit() error {
	p0, p1 := 0, 0
	for ti := range m.tags {
		e := &m.tags[ti]
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
			p1++
			if e.fptr < 0 || int(e.fptr) >= len(m.data) {
				return fmt.Errorf("P1 tag %d has bad fptr %d", ti, e.fptr)
			}
			d := &m.data[e.fptr]
			if !d.valid || d.rptr != int32(ti) {
				return fmt.Errorf("P1 tag %d: FPTR/RPTR mismatch", ti)
			}
		default:
			return fmt.Errorf("tag %d has unknown state %d", ti, e.state)
		}
		if m.tagLine[ti] != e.line {
			return fmt.Errorf("tagLine mirror diverged at tag %d: %#x != %#x", ti, m.tagLine[ti], e.line)
		}
		wantMeta := uint16(0)
		if e.state != stInvalid {
			wantMeta = tagMetaOf(e.sdid)
		}
		if m.tagMeta[ti] != wantMeta {
			return fmt.Errorf("tagMeta mirror diverged at tag %d: %#x != %#x", ti, m.tagMeta[ti], wantMeta)
		}
		if m.tagFP != nil {
			wantFP := uint16(0)
			if e.state != stInvalid {
				wantFP = probe.Fingerprint(e.line)
			}
			skewSet := ti / m.ways
			if got := probe.Get(m.tagFP[skewSet*m.fpWords:], ti-skewSet*m.ways); got != wantFP {
				return fmt.Errorf("tagFP mirror diverged at tag %d: %#x != %#x", ti, got, wantFP)
			}
		}
	}
	if p0 != len(m.p0List) {
		return fmt.Errorf("P0 count %d != p0List length %d", p0, len(m.p0List))
	}
	if p0 > m.p0Cap {
		return fmt.Errorf("P0 count %d exceeds cap %d", p0, m.p0Cap)
	}
	if p1 != len(m.dataUsed) {
		return fmt.Errorf("P1 count %d != data in use %d", p1, len(m.dataUsed))
	}
	if len(m.dataUsed)+len(m.dataFree) != len(m.data) {
		return fmt.Errorf("data slots leak: used %d + free %d != %d",
			len(m.dataUsed), len(m.dataFree), len(m.data))
	}
	// validCnt and invMask agreement.
	for skew := 0; skew < m.skews; skew++ {
		for set := 0; set < m.sets; set++ {
			base := m.setBase(skew, set)
			n := uint16(0)
			inv := uint64(0)
			for w := int32(0); w < int32(m.ways); w++ {
				if m.tags[base+w].state != stInvalid {
					n++
				} else if m.ways <= 64 {
					inv |= 1 << uint(w)
				}
			}
			if n != m.validCnt[skew*m.sets+set] {
				return fmt.Errorf("validCnt[%d,%d] = %d, actual %d", skew, set, m.validCnt[skew*m.sets+set], n)
			}
			if m.invMask != nil && m.invMask[skew*m.sets+set] != inv {
				return fmt.Errorf("invMask[%d,%d] = %#x, actual %#x", skew, set, m.invMask[skew*m.sets+set], inv)
			}
		}
	}
	return nil
}
