// Package baseline implements conventional (non-secure) last-level caches:
// the paper's 16-way set-associative SRRIP baseline, plus LRU/DRRIP/random
// variants and a true fully-associative cache with random replacement used
// as the security gold standard in the occupancy-attack experiment (Fig 8).
package baseline

import (
	"fmt"

	"mayacache/internal/cachemodel"
	"mayacache/internal/probe"
	"mayacache/internal/rng"
)

// Config parameterizes a set-associative cache.
type Config struct {
	// Sets is the number of sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
	// Replacement selects the replacement policy (default SRRIP).
	Replacement ReplacementKind
	// Seed seeds the policy's randomness.
	Seed uint64
	// Hasher optionally overrides set indexing; nil means physical
	// modulo indexing (the non-secure baseline).
	Hasher cachemodel.IndexHasher
	// MatchSDID makes tag matching include the security domain ID
	// (secure designs); the plain baseline matches on line only.
	MatchSDID bool
	// NamePrefix overrides the reported name.
	NamePrefix string
}

// Per-way metadata is packed into one uint32 (flags in bits 0-2, the
// filling core in bits 8-15, the SDID in bits 16-23) and kept in an array
// parallel to lineArr. A packed way costs 12 bytes instead of the 24 a
// struct-of-everything layout takes, which halves the simulated cache's
// memory traffic — SetAssoc is every core's L1D and L2, so its footprint
// dominates the simulator's own cache behavior.
const (
	metaValid  uint32 = 1 << 0
	metaDirty  uint32 = 1 << 1
	metaReused uint32 = 1 << 2
)

func packMeta(sdid, core uint8, valid, dirty, reused bool) uint32 {
	m := uint32(sdid)<<16 | uint32(core)<<8
	if valid {
		m |= metaValid
	}
	if dirty {
		m |= metaDirty
	}
	if reused {
		m |= metaReused
	}
	return m
}

func metaSDID(m uint32) uint8 { return uint8(m >> 16) }
func metaCore(m uint32) uint8 { return uint8(m >> 8) }

// SetAssoc is a set-associative cache implementing cachemodel.LLC.
type SetAssoc struct {
	cfg    Config
	sets   int
	ways   int
	pol    policy
	polR   *rng.Rand // the one RNG shared by the policy tree
	hasher cachemodel.IndexHasher
	stats  cachemodel.Stats
	wbBuf  []cachemodel.WritebackOut //mayavet:ignore snapshotfields -- per-call output buffer; dead between accesses

	// Devirtualization fast paths. SetAssoc is also every core's L1D and
	// L2, so its per-access interface dispatches (hasher, policy) dominate
	// simulator profiles; the concrete pointers below let the hot loop
	// inline the common ModuloHasher/LRU/RRIP cases. Semantics are
	// unchanged — each fast path is the same code the interface reaches.
	modMask uint64 // ModuloHasher's mask; useMod gates it
	useMod  bool
	lru     *lruPolicy  // non-nil when pol is LRU
	rrip    *rripPolicy // non-nil when pol is SRRIP/BRRIP

	// mru[set] is the last way hit or filled in the set — a lookup hint
	// only. A line resides in at most one way of its set, so probing the
	// hinted way first returns the same way the full scan would; a stale
	// hint just falls through to the scan. Not serialized: restoring to
	// way 0 is always a valid hint.
	mru []int32 //mayavet:ignore snapshotfields -- lookup hint only; any value is valid after restore

	// lineArr[i] holds way i's line (zero when invalid) and meta[i] its
	// packed metadata; candidates that match a line are verified against
	// meta before they count as hits. validCnt[set] counts valid ways so a
	// full set skips the invalid-way scan on misses; it is rebuilt on
	// restore.
	lineArr  []uint64
	meta     []uint32
	validCnt []int32 //mayavet:ignore snapshotfields -- derived: rebuilt from meta on restore
}

// NewChecked constructs a set-associative cache, returning an error
// wrapping cachemodel.ErrBadConfig when the geometry is invalid. Sets must
// be a power of two.
func NewChecked(cfg Config) (*SetAssoc, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, cachemodel.BadConfigf("baseline: Sets must be a positive power of two, got %d", cfg.Sets)
	}
	if cfg.Ways <= 0 {
		return nil, cachemodel.BadConfigf("baseline: Ways must be positive, got %d", cfg.Ways)
	}
	polR := rng.New(cfg.Seed ^ 0xba5e)
	nWays := cfg.Sets * cfg.Ways
	// One flat arena for the parallel arrays, probe-hottest first.
	ar := probe.NewArena(
		probe.Size[uint64](nWays) + // lineArr
			probe.Size[uint32](nWays) + // meta
			probe.Size[int32](2*cfg.Sets)) // validCnt + mru
	c := &SetAssoc{
		cfg:      cfg,
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		pol:      newPolicy(cfg.Replacement, cfg.Sets, cfg.Ways, polR),
		polR:     polR,
		hasher:   cfg.Hasher,
		lineArr:  probe.Alloc[uint64](ar, nWays),
		meta:     probe.Alloc[uint32](ar, nWays),
		validCnt: probe.Alloc[int32](ar, cfg.Sets),
		mru:      probe.Alloc[int32](ar, cfg.Sets),
	}
	if c.hasher == nil {
		c.hasher = cachemodel.NewModuloHasher(cachemodel.Log2(cfg.Sets))
	}
	if mh, ok := c.hasher.(*cachemodel.ModuloHasher); ok {
		c.modMask = mh.Mask()
		c.useMod = true
	}
	c.lru, _ = c.pol.(*lruPolicy)
	c.rrip, _ = c.pol.(*rripPolicy)
	return c, nil
}

// index maps a line to its set, inlining the ModuloHasher common case.
func (c *SetAssoc) index(line uint64) int {
	if c.useMod {
		return int(line & c.modMask)
	}
	return c.hasher.Index(0, line)
}

// matchAt reports whether global way index i holds (line, sdid).
func (c *SetAssoc) matchAt(i int, line uint64, sdid uint8) bool {
	mv := c.meta[i]
	if mv&metaValid == 0 || c.lineArr[i] != line {
		return false
	}
	return !c.cfg.MatchSDID || metaSDID(mv) == sdid
}

// Access implements cachemodel.LLC.
func (c *SetAssoc) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	if a.Type == cachemodel.Read {
		s.Reads++
	} else {
		s.Writebacks++
	}

	idx := c.index(a.Line)
	base := idx * c.ways
	lines := c.lineArr[base : base+c.ways]
	meta := c.meta[base : base+c.ways]
	matchSD := c.cfg.MatchSDID
	if h := int(c.mru[idx]); h < len(lines) && lines[h] == a.Line {
		if mv := meta[h]; mv&metaValid != 0 && (!matchSD || metaSDID(mv) == a.SDID) {
			return c.hit(a, idx, h, &meta[h])
		}
	}
	for w := range lines {
		if lines[w] == a.Line {
			if mv := meta[w]; mv&metaValid != 0 && (!matchSD || metaSDID(mv) == a.SDID) {
				return c.hit(a, idx, w, &meta[w])
			}
		}
	}

	// Miss: allocate (demand and writeback both allocate).
	s.Misses++
	if a.Type == cachemodel.Read {
		s.DemandMisses++
	} else {
		s.WritebackMisses++
	}
	way := -1
	if int(c.validCnt[idx]) < c.ways {
		for w := range meta {
			if meta[w]&metaValid == 0 {
				way = w
				break
			}
		}
	}
	sae := false
	if way >= 0 {
		c.validCnt[idx]++
	} else {
		switch {
		case c.lru != nil:
			way = c.lru.victim(idx)
		case c.rrip != nil:
			way = c.rrip.victim(idx)
		default:
			way = c.pol.victim(idx)
		}
		mv := meta[way]
		sae = true // conventional caches evict within the set by definition
		s.SAEs++
		c.accountEviction(mv, a.Core)
		if mv&metaDirty != 0 {
			c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: lines[way], SDID: metaSDID(mv)})
			s.WritebacksToMem++
		}
	}
	meta[way] = packMeta(a.SDID, a.Core, true, a.Type == cachemodel.Writeback, false)
	lines[way] = a.Line
	s.Fills++
	s.DataFills++
	c.mru[idx] = int32(way)
	switch {
	case c.lru != nil:
		c.lru.fill(idx, way)
	case c.rrip != nil:
		c.rrip.fill(idx, way)
	default:
		c.pol.fill(idx, way)
	}
	return cachemodel.Result{SAE: sae, Writebacks: c.wbBuf}
}

// hit applies the hit-path bookkeeping for (idx, w); factored out so the
// MRU-hint probe and the full scan share one code path.
func (c *SetAssoc) hit(a cachemodel.Access, idx, w int, mp *uint32) cachemodel.Result {
	s := &c.stats
	s.TagHits++
	s.DataHits++
	if a.Type == cachemodel.Read {
		// Only demand hits count as reuse; a line's own dirty
		// writeback returning from the L2 is not utility.
		if *mp&metaReused == 0 {
			s.FirstDemandReuses++
			*mp |= metaReused
		}
	} else {
		*mp |= metaDirty
	}
	c.mru[idx] = int32(w)
	switch {
	case c.lru != nil:
		c.lru.hit(idx, w)
	case c.rrip != nil:
		c.rrip.hit(idx, w)
	default:
		c.pol.hit(idx, w)
	}
	return cachemodel.Result{TagHit: true, DataHit: true}
}

func (c *SetAssoc) accountEviction(mv uint32, evictorCore uint8) {
	if mv&metaReused != 0 {
		c.stats.ReusedDataEvictions++
	} else {
		c.stats.DeadDataEvictions++
	}
	if metaCore(mv) != evictorCore {
		c.stats.InterCoreEvictions++
	}
}

// Flush implements cachemodel.LLC.
func (c *SetAssoc) Flush(line uint64, sdid uint8) bool {
	idx := c.index(line)
	base := idx * c.ways
	for w := 0; w < c.ways; w++ {
		if c.matchAt(base+w, line, sdid) {
			c.lineArr[base+w] = 0
			c.meta[base+w] = 0
			c.validCnt[idx]--
			c.stats.Flushes++
			return true
		}
	}
	return false
}

// Probe implements cachemodel.LLC.
func (c *SetAssoc) Probe(line uint64, sdid uint8) (bool, bool) {
	base := c.index(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.matchAt(base+w, line, sdid) {
			return true, true
		}
	}
	return false, false
}

// LookupPenalty implements cachemodel.LLC: physical indexing is free.
func (c *SetAssoc) LookupPenalty() int { return 0 }

// StatsSnapshot implements cachemodel.LLC.
func (c *SetAssoc) StatsSnapshot() cachemodel.Stats { return c.stats }

// ResetStats implements cachemodel.LLC.
func (c *SetAssoc) ResetStats() { c.stats.Reset() }

// Name implements cachemodel.LLC.
func (c *SetAssoc) Name() string {
	if c.cfg.NamePrefix != "" {
		return c.cfg.NamePrefix
	}
	return fmt.Sprintf("Baseline-%dway-%s", c.ways, c.pol.kind())
}

// Geometry implements cachemodel.LLC.
func (c *SetAssoc) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       1,
		SetsPerSkew: c.sets,
		WaysPerSkew: c.ways,
		DataEntries: c.sets * c.ways,
		TagEntries:  c.sets * c.ways,
	}
}

// Occupancy returns the number of valid entries (used by attack drivers).
func (c *SetAssoc) Occupancy() int {
	n := 0
	for _, mv := range c.meta {
		if mv&metaValid != 0 {
			n++
		}
	}
	return n
}
