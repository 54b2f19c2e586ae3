// Package mirage implements the Mirage cache (Saileshwar & Qureshi, USENIX
// Security 2021): the fully-associative-by-illusion LLC that Maya improves
// on. Mirage decouples a skewed-associative tag store (with extra invalid
// tag ways per skew) from a full-size data store, installs every line via
// load-aware skew selection, and replaces via global random data eviction.
// Relative to Maya it has no priority-0/reuse machinery: every valid tag
// owns a data entry, which is why it pays a 20% storage overhead where Maya
// saves 2%.
//
// The package also provides Mirage-Lite (fewer extra ways) used in the
// paper's Table X comparison.
package mirage

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
// O(tags) Audit from the access path.
const auditPeriod = 4096

// Config parameterizes a Mirage cache.
type Config struct {
	// SetsPerSkew is the number of tag sets per skew (16K default).
	SetsPerSkew int
	// Skews is the number of tag-store skews (2 default).
	Skews int
	// BaseWays per skew determine the data store size:
	// SetsPerSkew*Skews*BaseWays entries (8 default -> 16MB).
	BaseWays int
	// ExtraWays per skew are the additional invalid tags that absorb
	// load imbalance (6 default; Mirage-Lite uses fewer).
	ExtraWays int
	// Seed drives keys and eviction randomness.
	Seed uint64
	// Hasher overrides the index function; nil selects PRINCE.
	Hasher cachemodel.IndexHasher
	// RekeyOnSAE refreshes keys and flushes on an SAE.
	RekeyOnSAE bool
	// NameSuffix distinguishes variants (e.g. "-Lite") in reports.
	NameSuffix string
	// NoSWAR disables the packed-fingerprint SWAR probe path (scalar
	// tagLine scan instead). Results are identical either way.
	NoSWAR bool
	// NoArena allocates the design's arrays individually instead of
	// carving them from one flat arena. Layout only; results identical.
	NoArena bool
	// MemoBits sizes the epoch-tagged index memo table (probe.Memo):
	// 0 selects probe.DefaultMemoBits, negative disables memoization.
	// Speed only; results are identical at any setting, and the memo is
	// silently disabled when Hasher lacks the Epoch purity signal.
	MemoBits int
}

// DefaultConfig is the paper's Mirage configuration for a 16MB LLC:
// 2 skews x 16K sets x (8 base + 6 extra) ways, 256K data entries.
func DefaultConfig(seed uint64) Config {
	return Config{
		SetsPerSkew: 16384,
		Skews:       2,
		BaseWays:    8,
		ExtraWays:   6,
		Seed:        seed,
	}
}

// LiteConfig is Mirage-Lite: the same structure with fewer extra ways,
// trading security (10^21 installs per SAE) for storage (+17%).
func LiteConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.ExtraWays = 5
	c.NameSuffix = "-Lite"
	return c
}

type tagEntry struct {
	line   uint64
	fptr   int32
	sdid   uint8
	core   uint8
	valid  bool
	dirty  bool
	reused bool
}

type dataEntry struct {
	rptr    int32
	usedPos int32
	valid   bool
}

// Mirage implements cachemodel.LLC.
type Mirage struct {
	cfg      Config
	ways     int
	sets     int
	skews    int
	tags     []tagEntry
	validCnt []uint16

	// invMask[skewSet] has bit w set when way w of that set is invalid, so
	// the install path finds its free way with a TrailingZeros instead of a
	// tagEntry scan (the lowest set bit is exactly the first invalid way
	// the scan would return). Nil when ways > 64 (install falls back to
	// scanning). Derived state: maintained at every validity flip and
	// rebuilt on snapshot restore.
	invMask []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore

	// tagLine mirrors tags[i].line (zero when invalid) so the lookup scan
	// touches 8 bytes per way instead of a full tagEntry; line-matching
	// candidates are verified against tagMeta — which mirrors validity and
	// SDID as tagMetaOf(sdid), zero when invalid — before they count as
	// hits. Maintained by every writer of tags[i].line and rebuilt on
	// restore.
	tagLine []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore
	tagMeta []uint16 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore

	// tagFP packs one 16-bit probe fingerprint per way (probe.Fingerprint
	// of the line, 0 when invalid), fpWords words per (skew,set); lookup
	// SWAR-compares a whole set and verifies candidates against
	// tagLine/tagMeta. Nil when cfg.NoSWAR.
	tagFP   []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tags on restore
	fpWords int

	data     []dataEntry
	dataUsed []int32
	dataFree []int32

	hasher cachemodel.IndexHasher
	// memo caches each line's all-skew indexes and probe fingerprint,
	// keyed by the rekey epoch (see core.Maya.memo; nil when disabled).
	memo  *probe.Memo //mayavet:ignore snapshotfields -- derived: pure function of (line, rekey epoch); wiped on restore
	r     *rng.Rand
	stats cachemodel.Stats
	wbBuf []cachemodel.WritebackOut //mayavet:ignore snapshotfields -- per-call output buffer; dead between accesses

	// skewIdx caches the per-skew set indices computed by lookup so the
	// install path that follows a miss never re-hashes the same line.
	skewIdx []int32 //mayavet:ignore snapshotfields -- per-access scratch; dead between accesses
}

// NewChecked constructs a Mirage cache from cfg, returning an error
// wrapping cachemodel.ErrBadConfig when the geometry is invalid.
func NewChecked(cfg Config) (*Mirage, error) {
	if cfg.SetsPerSkew <= 0 || cfg.SetsPerSkew&(cfg.SetsPerSkew-1) != 0 {
		return nil, cachemodel.BadConfigf("mirage: SetsPerSkew must be a positive power of two, got %d", cfg.SetsPerSkew)
	}
	if cfg.Skews < 2 {
		return nil, cachemodel.BadConfigf("mirage: at least two skews required, got %d", cfg.Skews)
	}
	if cfg.BaseWays <= 0 || cfg.ExtraWays < 0 {
		return nil, cachemodel.BadConfigf("mirage: invalid way configuration (base %d, extra %d)",
			cfg.BaseWays, cfg.ExtraWays)
	}
	ways := cfg.BaseWays + cfg.ExtraWays
	nTags := cfg.Skews * cfg.SetsPerSkew * ways
	nData := cfg.Skews * cfg.SetsPerSkew * cfg.BaseWays
	// FPTR/RPTR and dense-list positions are int32: every tag index is
	// < nTags and every data index or list position is < nData, so this
	// single geometry check bounds all narrowing conversions below.
	if nTags > math.MaxInt32 {
		return nil, cachemodel.BadConfigf("mirage: geometry with %d tag entries overflows int32 indices", nTags)
	}
	nSets := cfg.Skews * cfg.SetsPerSkew
	fpWords := probe.WordsFor(ways)
	nFP := nSets * fpWords
	if cfg.NoSWAR {
		nFP = 0
	}
	memoBits := cachemodel.MemoBitsFor(cfg.Hasher, cfg.MemoBits)
	// One flat arena for the parallel arrays, probe-hottest first (see
	// core.NewChecked; the memo leads since it is consulted before any
	// probe word). Alloc falls back to standalone allocations on a nil
	// arena or stale sizing.
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
				probe.Size[int32](2*nData))
	}
	memo := probe.NewMemo(ar, cfg.Skews, memoBits)
	c := &Mirage{
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
		r:        rng.New(cfg.Seed ^ 0x4d697261), // "Mira"
		skewIdx:  make([]int32, cfg.Skews),
	}
	if ways <= 64 {
		c.invMask = probe.Alloc[uint64](ar, nSets)
		for i := range c.invMask {
			c.invMask[i] = fullInvMask(ways)
		}
	}
	c.tags = probe.Alloc[tagEntry](ar, nTags)
	c.data = probe.Alloc[dataEntry](ar, nData)
	c.dataUsed = probe.Alloc[int32](ar, nData)[:0]
	c.dataFree = probe.Alloc[int32](ar, nData)[:0]
	for i := range c.tags {
		c.tags[i].fptr = -1
	}
	for i := nData - 1; i >= 0; i-- {
		c.dataFree = append(c.dataFree, int32(i))
	}
	c.hasher = cfg.Hasher
	if c.hasher == nil {
		c.hasher = prince.NewRandomizer(cfg.Skews, log2(cfg.SetsPerSkew), cfg.Seed)
	}
	return c, nil
}

func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

func (c *Mirage) setBase(skew, set int) int32 {
	return int32((skew*c.sets + set) * c.ways)
}

// resolveIndexes fills skewIdx with every skew's set index for line and
// returns the line's packed probe fingerprint (zero on the scalar path),
// consulting the epoch-tagged memo first (see core.Maya.resolveIndexes).
func (c *Mirage) resolveIndexes(line uint64) uint16 {
	if c.memo != nil {
		if fp, ok := c.memo.Lookup(line, c.skewIdx); ok {
			if invariant.Enabled {
				for skew := 0; skew < c.skews; skew++ {
					invariant.Check(int(c.skewIdx[skew]) == c.hasher.Index(skew, line),
						"mirage: memo index diverged at skew %d for line %#x", skew, line)
				}
				invariant.Check(c.tagFP == nil || fp == probe.Fingerprint(line),
					"mirage: memo fingerprint diverged for line %#x", line)
			}
			return fp
		}
		fp := c.computeIndexes(line)
		c.memo.Insert(line, c.skewIdx, fp)
		return fp
	}
	return c.computeIndexes(line)
}

// computeIndexes is the direct (memo-less) index resolution.
func (c *Mirage) computeIndexes(line uint64) uint16 {
	for skew := 0; skew < c.skews; skew++ {
		c.skewIdx[skew] = int32(c.hasher.Index(skew, line))
	}
	if c.tagFP == nil {
		return 0
	}
	return probe.Fingerprint(line)
}

// lookup finds the tag index of (line, sdid) or -1. As a side effect it
// records each skew's set index in skewIdx for the install path (see
// chooseSkew), halving hash computations per miss.
//
// The SWAR path compares a whole set's ways per packed word and verifies
// flagged lanes (lowest first) against tagLine/tagMeta, so the first
// verified hit is exactly the way the scalar scan would return.
func (c *Mirage) lookup(line uint64, sdid uint8) int32 {
	fp := c.resolveIndexes(line)
	if c.tagFP == nil {
		return c.lookupScalar(line, sdid)
	}
	want := tagMetaOf(sdid)
	bfp := probe.Broadcast(fp)
	for skew := 0; skew < c.skews; skew++ {
		idx := int(c.skewIdx[skew])
		base := c.setBase(skew, idx)
		fpBase := (skew*c.sets + idx) * c.fpWords
		words := c.tagFP[fpBase : fpBase+c.fpWords]
		for wi := range words {
			cand := probe.Candidates(words[wi], bfp)
			for cand != 0 {
				var lane int
				lane, cand = probe.NextLane(cand)
				w := wi*probe.LanesPerWord + lane
				if w >= c.ways {
					// Padding lanes hold fingerprint 0 and only flag as
					// false positives; the rest of the word is padding.
					break
				}
				if ti := base + int32(w); c.tagLine[ti] == line && c.tagMeta[ti] == want {
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
func (c *Mirage) lookupScalar(line uint64, sdid uint8) int32 {
	want := tagMetaOf(sdid)
	for skew := 0; skew < c.skews; skew++ {
		base := c.setBase(skew, int(c.skewIdx[skew]))
		lines := c.tagLine[base : int(base)+c.ways]
		for w := range lines {
			if lines[w] == line {
				if c.tagMeta[int(base)+w] == want {
					return base + int32(w)
				}
			}
		}
	}
	return -1
}

// setFP writes tag ti's packed probe fingerprint (0 marks invalid). It is
// called everywhere tagLine/tagMeta flip validity or identity.
func (c *Mirage) setFP(ti int32, fp uint16) {
	if c.tagFP == nil {
		return
	}
	skewSet := int(ti) / c.ways
	probe.Set(c.tagFP[skewSet*c.fpWords:], int(ti)-skewSet*c.ways, fp)
}

// Access implements cachemodel.LLC.
func (c *Mirage) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	isWB := a.Type == cachemodel.Writeback
	if isWB {
		s.Writebacks++
	} else {
		s.Reads++
	}

	if invariant.Enabled && invariant.Every(s.Accesses, auditPeriod) {
		invariant.CheckErr(c.Audit())
	}

	if ti := c.lookup(a.Line, a.SDID); ti >= 0 {
		e := &c.tags[ti]
		s.TagHits++
		s.DataHits++
		if isWB {
			e.dirty = true
		} else {
			// Only demand hits count as reuse for dead-block stats.
			if !e.reused {
				s.FirstDemandReuses++
				e.reused = true
			}
		}
		return cachemodel.Result{TagHit: true, DataHit: true}
	}

	// Miss: free a data entry if needed (global random eviction), then
	// install into the less-loaded skew.
	s.Misses++
	if isWB {
		s.WritebackMisses++
	} else {
		s.DemandMisses++
	}
	if len(c.dataFree) == 0 {
		c.globalEviction(a.Core)
	}
	sae := c.install(a)
	if sae {
		s.SAEs++
		if c.cfg.RekeyOnSAE {
			c.rekeyAndFlush()
		}
	}
	return cachemodel.Result{SAE: sae, Writebacks: c.wbBuf}
}

// chooseSkew is load-aware skew selection (same policy as Maya). It reads
// the set indices cached in skewIdx by the lookup that precedes every
// install, so it must only run on the Access miss path.
func (c *Mirage) chooseSkew() (int, int, bool) {
	bestSkew, bestSet, bestValid := -1, -1, 0
	tie := 0
	for skew := 0; skew < c.skews; skew++ {
		set := int(c.skewIdx[skew])
		v := int(c.validCnt[skew*c.sets+set])
		switch {
		case bestSkew < 0 || v < bestValid:
			bestSkew, bestSet, bestValid = skew, set, v
			tie = 1
		case v == bestValid:
			tie++
			if c.r.Intn(tie) == 0 {
				bestSkew, bestSet = skew, set
			}
		}
	}
	return bestSkew, bestSet, bestValid < c.ways
}

func (c *Mirage) install(a cachemodel.Access) bool {
	skew, set, ok := c.chooseSkew()
	sae := false
	if !ok {
		// SAE: evict a random valid entry from the target set.
		sae = true
		base := c.setBase(skew, set)
		w := int32(c.r.Intn(c.ways))
		c.evictTag(base+w, a.Core, true)
	}
	base := c.setBase(skew, set)
	var ti int32 = -1
	if c.invMask != nil {
		if mask := c.invMask[skew*c.sets+set]; mask != 0 {
			// The lowest set bit is the first invalid way in scan order.
			ti = base + int32(bits.TrailingZeros64(mask))
		}
	} else {
		ways := c.tags[base : int(base)+c.ways]
		for w := range ways {
			if !ways[w].valid {
				ti = base + int32(w)
				break
			}
		}
	}
	e := &c.tags[ti]
	*e = tagEntry{line: a.Line, sdid: a.SDID, core: a.Core, valid: true, dirty: a.Type == cachemodel.Writeback, fptr: -1}
	c.tagLine[ti] = a.Line
	c.tagMeta[ti] = tagMetaOf(a.SDID)
	c.setFP(ti, probe.Fingerprint(a.Line))
	c.validCnt[skew*c.sets+set]++
	c.markValid(ti)
	c.stats.Fills++

	// Attach a data entry (one is guaranteed free here).
	slot := c.dataFree[len(c.dataFree)-1]
	c.dataFree = c.dataFree[:len(c.dataFree)-1]
	d := &c.data[slot]
	d.valid = true
	d.rptr = ti
	d.usedPos = int32(len(c.dataUsed)) //mayavet:checked len(dataUsed) < nData <= MaxInt32 (New)
	c.dataUsed = append(c.dataUsed, slot)
	e.fptr = slot
	c.stats.DataFills++
	if invariant.Enabled {
		// Every valid Mirage tag owns exactly one data entry; the link just
		// made must be bidirectional, and valid-way accounting must agree
		// with the data store occupancy.
		invariant.Check(c.data[slot].rptr == ti && c.tags[ti].fptr == slot,
			"mirage: FPTR/RPTR link broken at slot %d tag %d", slot, ti)
		invariant.Check(len(c.dataUsed)+len(c.dataFree) == len(c.data),
			"mirage: data slots leak after install: used %d + free %d != %d",
			len(c.dataUsed), len(c.dataFree), len(c.data))
	}
	return sae
}

// globalEviction removes a uniformly random line from the whole cache —
// the property that makes Mirage equivalent to a fully-associative cache
// with random replacement.
func (c *Mirage) globalEviction(evictorCore uint8) {
	pos := int32(c.r.Intn(len(c.dataUsed))) //mayavet:checked Intn < len(dataUsed) <= nData <= MaxInt32 (New)
	slot := c.dataUsed[pos]
	c.evictTag(c.data[slot].rptr, evictorCore, true)
	c.stats.GlobalDataEvictions++
}

// evictTag invalidates tag ti and frees its data entry. account controls
// dead-block/inter-core bookkeeping (flushes are excluded from it).
func (c *Mirage) evictTag(ti int32, evictorCore uint8, account bool) {
	e := &c.tags[ti]
	if invariant.Enabled {
		invariant.Check(e.valid, "mirage: evictTag on invalid tag %d", ti)
	}
	if account {
		if e.reused {
			c.stats.ReusedDataEvictions++
		} else {
			c.stats.DeadDataEvictions++
		}
		if e.core != evictorCore {
			c.stats.InterCoreEvictions++
		}
	}
	if e.dirty {
		c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: e.line, SDID: e.sdid})
		c.stats.WritebacksToMem++
	}
	c.freeDataSlot(e.fptr)
	skewSet := int(ti) / c.ways
	c.validCnt[skewSet]--
	if c.invMask != nil {
		c.invMask[skewSet] |= 1 << uint(int(ti)-skewSet*c.ways)
	}
	*e = tagEntry{fptr: -1}
	c.tagLine[ti] = 0
	c.tagMeta[ti] = 0
	c.setFP(ti, 0)
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

// markValid clears tag ti's bit in the invalid-way mask after a fill.
func (c *Mirage) markValid(ti int32) {
	if c.invMask != nil {
		skewSet := int(ti) / c.ways
		c.invMask[skewSet] &^= 1 << uint(int(ti)-skewSet*c.ways)
	}
}

func (c *Mirage) freeDataSlot(slot int32) {
	pos := c.data[slot].usedPos
	if invariant.Enabled {
		invariant.Check(c.data[slot].valid, "mirage: freeing invalid data slot %d", slot)
		invariant.Check(pos >= 0 && int(pos) < len(c.dataUsed) && c.dataUsed[pos] == slot,
			"mirage: dataUsed position %d does not hold slot %d", pos, slot)
	}
	last := int32(len(c.dataUsed) - 1)
	moved := c.dataUsed[last]
	c.dataUsed[pos] = moved
	c.data[moved].usedPos = pos
	c.dataUsed = c.dataUsed[:last]
	c.data[slot] = dataEntry{rptr: -1}
	c.dataFree = append(c.dataFree, slot)
}

func (c *Mirage) rekeyAndFlush() {
	for ti := range c.tags {
		e := &c.tags[ti]
		if !e.valid {
			continue
		}
		if e.dirty {
			c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: e.line, SDID: e.sdid})
			c.stats.WritebacksToMem++
		}
		c.freeDataSlot(e.fptr)
		*e = tagEntry{fptr: -1}
		c.tagLine[ti] = 0
		c.tagMeta[ti] = 0
	}
	for i := range c.tagFP {
		c.tagFP[i] = 0
	}
	for i := range c.validCnt {
		c.validCnt[i] = 0
	}
	for i := range c.invMask {
		c.invMask[i] = fullInvMask(c.ways)
	}
	c.hasher.Rekey()
	if c.memo != nil {
		// Every cached index vector belongs to the old keys; one epoch
		// bump retires them all.
		c.memo.Invalidate()
	}
	c.stats.Rekeys++
}

// Flush implements cachemodel.LLC.
func (c *Mirage) Flush(line uint64, sdid uint8) bool {
	ti := c.lookup(line, sdid)
	if ti < 0 {
		return false
	}
	c.evictTag(ti, c.tags[ti].core, false)
	c.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (c *Mirage) Probe(line uint64, sdid uint8) (bool, bool) {
	hit := c.lookup(line, sdid) >= 0
	return hit, hit
}

// LookupPenalty implements cachemodel.LLC: 3 cycles of PRINCE plus 1 cycle
// of indirection, as charged in the paper.
func (c *Mirage) LookupPenalty() int { return prince.LatencyCycles + 1 }

// StatsSnapshot implements cachemodel.LLC.
func (c *Mirage) StatsSnapshot() cachemodel.Stats {
	s := c.stats
	if c.memo != nil {
		s.MemoHits, s.MemoMisses = c.memo.Counters()
	}
	return s
}

// ResetStats implements cachemodel.LLC.
func (c *Mirage) ResetStats() {
	c.stats.Reset()
	if c.memo != nil {
		c.memo.ResetCounters()
	}
}

// Name implements cachemodel.LLC.
func (c *Mirage) Name() string {
	return fmt.Sprintf("Mirage-%db%de%s", c.cfg.BaseWays, c.cfg.ExtraWays, c.cfg.NameSuffix)
}

// Geometry implements cachemodel.LLC.
func (c *Mirage) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       c.skews,
		SetsPerSkew: c.sets,
		WaysPerSkew: c.ways,
		DataEntries: len(c.data),
		TagEntries:  len(c.tags),
		Decoupled:   true,
	}
}

// Occupancy returns the number of resident lines.
func (c *Mirage) Occupancy() int { return len(c.dataUsed) }

// Audit verifies FPTR/RPTR consistency and population accounting.
func (c *Mirage) Audit() error {
	valid := 0
	for ti := range c.tags {
		e := &c.tags[ti]
		if c.tagLine[ti] != e.line {
			return fmt.Errorf("tagLine mirror diverged at tag %d: %#x != %#x", ti, c.tagLine[ti], e.line)
		}
		wantMeta := uint16(0)
		if e.valid {
			wantMeta = tagMetaOf(e.sdid)
		}
		if c.tagMeta[ti] != wantMeta {
			return fmt.Errorf("tagMeta mirror diverged at tag %d: %#x != %#x", ti, c.tagMeta[ti], wantMeta)
		}
		if c.tagFP != nil {
			wantFP := uint16(0)
			if e.valid {
				wantFP = probe.Fingerprint(e.line)
			}
			skewSet := ti / c.ways
			if got := probe.Get(c.tagFP[skewSet*c.fpWords:], ti-skewSet*c.ways); got != wantFP {
				return fmt.Errorf("tagFP mirror diverged at tag %d: %#x != %#x", ti, got, wantFP)
			}
		}
		if !e.valid {
			continue
		}
		valid++
		if e.fptr < 0 || int(e.fptr) >= len(c.data) {
			return fmt.Errorf("tag %d has bad fptr %d", ti, e.fptr)
		}
		d := &c.data[e.fptr]
		if !d.valid || d.rptr != int32(ti) {
			return fmt.Errorf("tag %d: FPTR/RPTR mismatch", ti)
		}
	}
	if valid != len(c.dataUsed) {
		return fmt.Errorf("valid tags %d != data in use %d", valid, len(c.dataUsed))
	}
	if len(c.dataUsed)+len(c.dataFree) != len(c.data) {
		return fmt.Errorf("data slots leak")
	}
	// Valid/invalid-way accounting: load-aware skew selection reads
	// validCnt, so drift here skews the install distribution the security
	// argument depends on.
	for skew := 0; skew < c.skews; skew++ {
		for set := 0; set < c.sets; set++ {
			base := c.setBase(skew, set)
			n := uint16(0)
			inv := uint64(0)
			for w := int32(0); w < int32(c.ways); w++ {
				if c.tags[base+w].valid {
					n++
				} else if c.ways <= 64 {
					inv |= 1 << uint(w)
				}
			}
			if n != c.validCnt[skew*c.sets+set] {
				return fmt.Errorf("validCnt[%d,%d] = %d, actual %d", skew, set, c.validCnt[skew*c.sets+set], n)
			}
			if c.invMask != nil && c.invMask[skew*c.sets+set] != inv {
				return fmt.Errorf("invMask[%d,%d] = %#x, actual %#x", skew, set, c.invMask[skew*c.sets+set], inv)
			}
		}
	}
	return nil
}
