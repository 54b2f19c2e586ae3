// Package mirage implements the Mirage cache (Saileshwar & Qureshi, USENIX
// Security 2021): the fully-associative-by-illusion LLC that Maya improves
// on. Mirage decouples a skewed-associative tag store (with extra invalid
// tag ways per skew) from a full-size data store, installs every line via
// load-aware skew selection, and replaces via global random data eviction.
// Relative to Maya it has no priority-0/reuse machinery: every valid tag
// owns a data entry, which is why it pays a 20% storage overhead where Maya
// saves 2%.
//
// The package also builds Mirage-Lite (fewer extra ways, the Mirage-Lite
// row of cachemodel's design table) for the paper's Table X comparison.
package mirage

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
}

// DefaultConfig is the paper's Mirage configuration for a 16MB LLC, the
// Mirage row at 8 cores: 2 skews x 16K sets x (8 base + 6 extra) ways,
// 256K data entries.
func DefaultConfig(seed uint64) Config {
	return config(cachemodel.Mirage, 8*cachemodel.DefaultSetsPerCore, seed, nil)
}

// tagEntry is the design's part of a tag: the store (probe.Skewed) holds
// its line, SDID and validity. Every valid tag owns a data slot, so a tag
// is valid exactly when fptr >= 0.
type tagEntry struct {
	fptr   int32 // data-store index; -1 when invalid
	core   uint8
	dirty  bool
	reused bool
}

// Mirage implements cachemodel.LLC.
type Mirage struct {
	cfg  Config
	ways int
	// st is the skewed tag store (hasher, memo, each tag's line, SDID and
	// validity, valid counts) and the data store; tags holds the rest of
	// each tag's state beside it, indexed alike: skews, then sets, then
	// ways.
	st   probe.Skewed
	tags []tagEntry

	r     *rng.Rand
	stats cachemodel.Stats
	wbBuf []cachemodel.WritebackOut //mayavet:ignore snapshotfields -- per-call output buffer; dead between accesses
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
	ar := probe.NewArena(arenaBytes(cfg))
	c := &Mirage{
		cfg:  cfg,
		ways: ways,
		st:   probe.NewSkewed(ar, "mirage", cfg.Hasher, cfg.Skews, cfg.SetsPerSkew, ways, nData, cfg.Seed),
		tags: probe.Alloc[tagEntry](ar, nTags),
		r:    rng.New(cfg.Seed ^ 0x4d697261), // "Mira"
	}
	for i := range c.tags {
		c.tags[i].fptr = -1
	}
	return c, nil
}

// arenaBytes is the flat arena NewChecked carves: the store's arrays,
// probe-hottest first, then the tags.
func arenaBytes(cfg Config) int {
	ways := cfg.BaseWays + cfg.ExtraWays
	nSets := cfg.Skews * cfg.SetsPerSkew
	return probe.SkewedBytes(cfg.Hasher, cfg.Skews, cfg.SetsPerSkew, ways, nSets*cfg.BaseWays) +
		probe.Size[tagEntry](nSets*ways)
}

// fptr reports tag ti's FPTR to the store's audit.
func (c *Mirage) fptr(ti int) int32 { return c.tags[ti].fptr }

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

	if ti := c.st.Lookup(a.Line, a.SDID); ti >= 0 {
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
	if c.st.Full() {
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

// install fills a tag in the less loaded of the line's candidate sets
// (load-aware skew selection, the same policy as Maya's, over the sets
// the missed lookup resolved) and attaches a data entry, one of which is
// guaranteed free here. Returns whether an SAE occurred.
func (c *Mirage) install(a cachemodel.Access) bool {
	skew, set, ok := c.st.ChooseSkew(c.r)
	if !ok {
		// SAE: evict a random valid entry from the target set.
		c.evictTag(c.st.Base(skew, set)+int32(c.r.Intn(c.ways)), a.Core, true)
	}
	ti := c.st.FreeWay(skew, set)
	e := &c.tags[ti]
	*e = tagEntry{core: a.Core, dirty: a.Type == cachemodel.Writeback, fptr: -1}
	c.st.Fill(ti, a.Line, a.SDID)
	c.stats.Fills++
	slot := c.st.Attach(ti)
	e.fptr = slot
	c.stats.DataFills++
	if invariant.Enabled {
		// Every valid Mirage tag owns exactly one data entry; the link just
		// made must be bidirectional.
		invariant.Check(c.st.Owner(slot) == ti && c.tags[ti].fptr == slot,
			"mirage: FPTR/RPTR link broken at slot %d tag %d", slot, ti)
	}
	return !ok
}

// globalEviction removes a uniformly random line from the whole cache —
// the property that makes Mirage equivalent to a fully-associative cache
// with random replacement.
func (c *Mirage) globalEviction(evictorCore uint8) {
	c.evictTag(c.st.Owner(c.st.RandomSlot(c.r)), evictorCore, true)
	c.stats.GlobalDataEvictions++
}

// evictTag invalidates tag ti and frees its data entry. account controls
// dead-block/inter-core bookkeeping (flushes are excluded from it).
func (c *Mirage) evictTag(ti int32, evictorCore uint8, account bool) {
	e := &c.tags[ti]
	if invariant.Enabled {
		invariant.Check(e.fptr >= 0, "mirage: evictTag on invalid tag %d", ti)
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
		c.writeback(ti)
	}
	c.st.FreeData(e.fptr)
	*e = tagEntry{fptr: -1}
	c.st.Clear(ti)
}

// writeback queues tag ti's dirty line for memory.
func (c *Mirage) writeback(ti int32) {
	c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: c.st.Line(ti), SDID: c.st.SDID(ti)})
	c.stats.WritebacksToMem++
}

func (c *Mirage) rekeyAndFlush() {
	for ti := range int32(len(c.tags)) {
		e := &c.tags[ti]
		if e.fptr < 0 {
			continue
		}
		if e.dirty {
			c.writeback(ti)
		}
		c.st.FreeData(e.fptr)
		*e = tagEntry{fptr: -1}
	}
	c.st.Rekey()
	c.stats.Rekeys++
}

// Flush implements cachemodel.LLC.
func (c *Mirage) Flush(line uint64, sdid uint8) bool {
	ti := c.st.Lookup(line, sdid)
	if ti < 0 {
		return false
	}
	c.evictTag(ti, c.tags[ti].core, false)
	c.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (c *Mirage) Probe(line uint64, sdid uint8) (bool, bool) {
	hit := c.st.Lookup(line, sdid) >= 0
	return hit, hit
}

// LookupPenalty implements cachemodel.LLC: 3 cycles of PRINCE plus 1 cycle
// of indirection, as charged in the paper.
func (c *Mirage) LookupPenalty() int { return prince.LatencyCycles + 1 }

// StatsSnapshot implements cachemodel.LLC.
func (c *Mirage) StatsSnapshot() cachemodel.Stats {
	s := c.stats
	s.MemoHits, s.MemoMisses = c.st.MemoCounters()
	return s
}

// ResetStats implements cachemodel.LLC.
func (c *Mirage) ResetStats() {
	c.stats.Reset()
	c.st.ResetMemoCounters()
}

// Name implements cachemodel.LLC.
func (c *Mirage) Name() string {
	return fmt.Sprintf("Mirage-%db%de%s", c.cfg.BaseWays, c.cfg.ExtraWays, c.cfg.NameSuffix)
}

// Geometry implements cachemodel.LLC.
func (c *Mirage) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       c.cfg.Skews,
		SetsPerSkew: c.cfg.SetsPerSkew,
		WaysPerSkew: c.ways,
		DataEntries: c.st.DataEntries(),
		TagEntries:  len(c.tags),
		Decoupled:   true,
	}
}

// Occupancy returns the number of resident lines.
func (c *Mirage) Occupancy() int { return c.st.Resident() }

// Audit verifies that exactly the tags the store holds as valid own data,
// then the store's own checks (see probe.Skewed.Audit): FPTR/RPTR
// bijection, slot conservation and valid counts — load-aware skew
// selection reads those counts, so drift there skews the install
// distribution the security argument depends on.
func (c *Mirage) Audit() error {
	for ti := range c.tags {
		if f, valid := c.tags[ti].fptr, c.st.Valid(int32(ti)); valid != (f >= 0) {
			return fmt.Errorf("tag %d has bad fptr %d (valid %v)", ti, f, valid)
		}
	}
	return c.st.Audit(c.fptr)
}
