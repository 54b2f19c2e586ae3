// Package ceaser implements the earlier generation of randomized LLCs the
// paper builds on (Section II-B): CEASER's encrypted single-index cache
// with periodic remapping, CEASER-S's two-skew variant, and Scatter-Cache's
// per-way skewed indexing. They exist in this repository as attack-study
// baselines: the eviction-set experiments in internal/attack show how fast
// probabilistic conflict attacks succeed against them relative to
// Mirage/Maya.
package ceaser

import (
	"fmt"

	"mayacache/internal/cachemodel"
	"mayacache/internal/prince"
	"mayacache/internal/probe"
	"mayacache/internal/rng"
)

// Variant selects among the three designs.
type Variant uint8

const (
	// CEASER: one encrypted index, LRU within set, periodic remap.
	CEASER Variant = iota
	// CEASERS: CEASER-S — ways split into two skews with independent
	// keys, random skew selection on install.
	CEASERS
	// ScatterCache: each way has an independent index; the install way is
	// chosen at random (Scatter-Cache SCv1).
	ScatterCache
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case CEASER:
		return "CEASER"
	case CEASERS:
		return "CEASER-S"
	case ScatterCache:
		return "ScatterCache"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Config parameterizes a randomized set-associative cache.
type Config struct {
	// Sets is the number of sets (power of two).
	Sets int
	// Ways is the total associativity (split across skews for CEASER-S).
	Ways int
	// Variant selects the design.
	Variant Variant
	// RemapPeriod is the number of fills between epoch remaps for CEASER
	// (0 disables remapping). CEASER's gradual remap is modeled as an
	// epoch flush+rekey, which is pessimistic for performance but
	// preserves the security-relevant property (mappings expire).
	RemapPeriod uint64
	// Seed drives keys and randomness.
	Seed uint64
	// Hasher overrides the index function; nil selects the PRINCE
	// randomizer.
	Hasher cachemodel.IndexHasher
}

type entry struct {
	line   uint64
	sdid   uint8
	core   uint8
	valid  bool
	dirty  bool
	reused bool
	stamp  uint64 // LRU stamp
}

// Cache implements cachemodel.LLC for all three variants.
type Cache struct {
	cfg       Config
	sets      int
	ways      int
	skews     int // 1 for CEASER, 2 for CEASER-S, Ways for Scatter
	waysPerSk int
	entries   []entry
	// front resolves each skew's set index; the miss path installs right
	// after a failed lookup of the same line, so it reads the indices the
	// lookup left there instead of re-running the randomizer.
	front probe.Front
	r     *rng.Rand
	clock uint64
	fills uint64
	stats cachemodel.Stats
	wbBuf []cachemodel.WritebackOut //mayavet:ignore snapshotfields -- per-call output buffer; dead between accesses
}

// NewChecked constructs the selected variant, returning an error wrapping
// cachemodel.ErrBadConfig when the geometry is invalid.
func NewChecked(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, cachemodel.BadConfigf("ceaser: Sets must be a positive power of two, got %d", cfg.Sets)
	}
	if cfg.Ways <= 0 {
		return nil, cachemodel.BadConfigf("ceaser: Ways must be positive, got %d", cfg.Ways)
	}
	c := &Cache{cfg: cfg, sets: cfg.Sets, ways: cfg.Ways, r: rng.New(cfg.Seed ^ 0xcea5e4)}
	switch cfg.Variant {
	case CEASER:
		c.skews, c.waysPerSk = 1, cfg.Ways
	case CEASERS:
		if cfg.Ways%2 != 0 {
			return nil, cachemodel.BadConfigf("ceaser: CEASER-S needs an even way count, got %d", cfg.Ways)
		}
		c.skews, c.waysPerSk = 2, cfg.Ways/2
	case ScatterCache:
		c.skews, c.waysPerSk = cfg.Ways, 1
	default:
		return nil, cachemodel.BadConfigf("ceaser: unknown variant %d", uint8(cfg.Variant))
	}
	c.entries = make([]entry, cfg.Sets*cfg.Ways)
	c.front = probe.NewFront(nil, cfg.Hasher, c.skews, cfg.Sets, cfg.Seed)
	return c, nil
}

// lookup finds (line, sdid), returning the entry index or -1. The front
// keeps each skew's set index so the install path that immediately
// follows a miss can skip re-running the randomizer.
func (c *Cache) lookup(line uint64, sdid uint8) int {
	c.front.Resolve(line)
	for skew := 0; skew < c.skews; skew++ {
		base := c.front.Index(skew)*c.ways + skew*c.waysPerSk
		row := c.entries[base : base+c.waysPerSk]
		for w := range row {
			e := &row[w]
			if e.valid && e.line == line && e.sdid == sdid {
				return base + w
			}
		}
	}
	return -1
}

// Access implements cachemodel.LLC.
func (c *Cache) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	if a.Type == cachemodel.Read {
		s.Reads++
	} else {
		s.Writebacks++
	}
	c.clock++

	if i := c.lookup(a.Line, a.SDID); i >= 0 {
		e := &c.entries[i]
		s.TagHits++
		s.DataHits++
		if a.Type == cachemodel.Read {
			if !e.reused {
				s.FirstDemandReuses++
				e.reused = true
			}
		} else {
			e.dirty = true
		}
		e.stamp = c.clock
		return cachemodel.Result{TagHit: true, DataHit: true}
	}

	s.Misses++
	if a.Type == cachemodel.Read {
		s.DemandMisses++
	} else {
		s.WritebackMisses++
	}
	// Pick the skew (and thus candidate set) to install into. The set
	// index was cached by the lookup that just missed on this line.
	skew := 0
	if c.skews > 1 {
		skew = c.r.Intn(c.skews)
	}
	set := c.front.Index(skew)
	base := set*c.ways + skew*c.waysPerSk
	row := c.entries[base : base+c.waysPerSk]
	// Prefer an invalid way within the chosen skew's portion of the set.
	way := -1
	for w := range row {
		if !row[w].valid {
			way = w
			break
		}
	}
	sae := false
	if way < 0 {
		// LRU victim within the skew's ways — a set-associative
		// eviction, observable by a conflict attacker.
		way = 0
		oldest := row[0].stamp
		for w := 1; w < len(row); w++ {
			if st := row[w].stamp; st < oldest {
				way, oldest = w, st
			}
		}
		sae = true
		s.SAEs++
		v := &row[way]
		if v.reused {
			s.ReusedDataEvictions++
		} else {
			s.DeadDataEvictions++
		}
		if v.core != a.Core {
			s.InterCoreEvictions++
		}
		if v.dirty {
			c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: v.line, SDID: v.sdid})
			s.WritebacksToMem++
		}
	}
	row[way] = entry{
		line: a.Line, sdid: a.SDID, core: a.Core,
		valid: true, dirty: a.Type == cachemodel.Writeback, stamp: c.clock,
	}
	s.Fills++
	s.DataFills++
	c.fills++
	if c.cfg.RemapPeriod > 0 && c.fills%c.cfg.RemapPeriod == 0 {
		c.remap()
	}
	return cachemodel.Result{SAE: sae, Writebacks: c.wbBuf}
}

// remap models CEASER's epoch key change: dirty lines are written back,
// the cache is cleared, and the index keys refresh.
func (c *Cache) remap() {
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.dirty {
			c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: e.line, SDID: e.sdid})
			c.stats.WritebacksToMem++
		}
		*e = entry{}
	}
	c.front.Rekey()
	c.stats.Rekeys++
}

// Flush implements cachemodel.LLC.
func (c *Cache) Flush(line uint64, sdid uint8) bool {
	i := c.lookup(line, sdid)
	if i < 0 {
		return false
	}
	if c.entries[i].dirty {
		c.stats.WritebacksToMem++
	}
	c.entries[i] = entry{}
	c.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (c *Cache) Probe(line uint64, sdid uint8) (bool, bool) {
	hit := c.lookup(line, sdid) >= 0
	return hit, hit
}

// LookupPenalty implements cachemodel.LLC: PRINCE latency, no indirection.
func (c *Cache) LookupPenalty() int { return prince.LatencyCycles }

// StatsSnapshot implements cachemodel.LLC.
func (c *Cache) StatsSnapshot() cachemodel.Stats {
	s := c.stats
	s.MemoHits, s.MemoMisses = c.front.MemoCounters()
	return s
}

// ResetStats implements cachemodel.LLC.
func (c *Cache) ResetStats() {
	c.stats.Reset()
	c.front.ResetMemoCounters()
}

// Name implements cachemodel.LLC.
func (c *Cache) Name() string { return c.cfg.Variant.String() }

// Geometry implements cachemodel.LLC.
func (c *Cache) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       c.skews,
		SetsPerSkew: c.sets,
		WaysPerSkew: c.waysPerSk,
		DataEntries: c.sets * c.ways,
		TagEntries:  c.sets * c.ways,
	}
}
