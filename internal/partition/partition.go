// Package partition implements the secure LLC partitioning baselines of
// Table XI: way partitioning (DAWG-style), set partitioning by page color
// (page-coloring-style), and fine-grained flexible set partitioning
// (BCE-style). Partitioning mitigates both conflict and occupancy attacks
// by construction but pays for it in effective capacity — the performance
// cost the table quantifies.
package partition

import (
	"fmt"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
)

// Kind selects a partitioning scheme.
type Kind uint8

const (
	// WayPartition gives each domain an exclusive subset of ways in
	// every set (DAWG-like). Domains are limited by the way count.
	WayPartition Kind = iota
	// SetPartition gives each domain an exclusive contiguous range of
	// sets (page-coloring-like); DRAM and LLC allocation are coupled,
	// which is the scheme's practical limitation.
	SetPartition
	// FlexSetPartition hashes lines into per-domain set groups that can
	// be sized in fine-grained units (BCE-like, 64KB granularity).
	FlexSetPartition
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case WayPartition:
		return "DAWG-way"
	case SetPartition:
		return "PageColor-set"
	case FlexSetPartition:
		return "BCE-flex"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config parameterizes a partitioned LLC.
type Config struct {
	// Sets and Ways describe the underlying physical cache.
	Sets int
	Ways int
	// Domains is the number of equal security partitions.
	Domains int
	// Kind selects the scheme.
	Kind Kind
	// Replacement is the per-partition replacement policy.
	Replacement baseline.ReplacementKind
	// Seed drives policy randomness.
	Seed uint64
}

// Cache is a partitioned LLC implementing cachemodel.LLC. Each domain's
// partition is an independent set-associative cache; the SDID (mod Domains)
// selects the partition, so no access from one domain can evict another's
// line — the defining isolation property, verified by tests.
type Cache struct {
	cfg   Config
	parts []*baseline.SetAssoc
	kind  Kind
	stats cachemodel.Stats
}

// mustPart unwraps the checked baseline constructor: every partition
// geometry below is derived from an already-validated Config.
func mustPart(c *baseline.SetAssoc, err error) *baseline.SetAssoc {
	if err != nil {
		panic(err)
	}
	return c
}

// New constructs a partitioned cache.
func New(cfg Config) *Cache {
	if cfg.Domains <= 0 {
		panic("partition: Domains must be positive")
	}
	c := &Cache{cfg: cfg, kind: cfg.Kind}
	switch cfg.Kind {
	case WayPartition:
		if cfg.Ways%cfg.Domains != 0 {
			panic(fmt.Sprintf("partition: %d ways not divisible by %d domains", cfg.Ways, cfg.Domains))
		}
		for d := 0; d < cfg.Domains; d++ {
			c.parts = append(c.parts, mustPart(baseline.NewChecked(baseline.Config{
				Sets:        cfg.Sets,
				Ways:        cfg.Ways / cfg.Domains,
				Replacement: cfg.Replacement,
				Seed:        cfg.Seed + uint64(d),
				NamePrefix:  fmt.Sprintf("%s[%d]", cfg.Kind, d),
			})))
		}
	case SetPartition, FlexSetPartition:
		if cfg.Sets%cfg.Domains != 0 {
			panic(fmt.Sprintf("partition: %d sets not divisible by %d domains", cfg.Sets, cfg.Domains))
		}
		per := cfg.Sets / cfg.Domains
		if per&(per-1) != 0 {
			panic("partition: per-domain set count must be a power of two")
		}
		for d := 0; d < cfg.Domains; d++ {
			hcfg := baseline.Config{
				Sets:        per,
				Ways:        cfg.Ways,
				Replacement: cfg.Replacement,
				Seed:        cfg.Seed + uint64(d),
				NamePrefix:  fmt.Sprintf("%s[%d]", cfg.Kind, d),
			}
			if cfg.Kind == FlexSetPartition {
				// BCE decouples LLC sets from DRAM layout by hashing
				// lines into the domain's set group.
				hcfg.Hasher = cachemodel.NewXorHasher(1, cachemodel.Log2(per), cfg.Seed^uint64(d)<<8)
			}
			c.parts = append(c.parts, mustPart(baseline.NewChecked(hcfg)))
		}
	default:
		panic("partition: unknown kind")
	}
	return c
}

func (c *Cache) part(sdid uint8) *baseline.SetAssoc {
	return c.parts[int(sdid)%len(c.parts)]
}

// Access implements cachemodel.LLC.
func (c *Cache) Access(a cachemodel.Access) cachemodel.Result {
	return c.part(a.SDID).Access(a)
}

// accumulate folds the partition counters into the top-level stats view.
// It runs on Stats() reads rather than per access.
func (c *Cache) accumulate() {
	var agg cachemodel.Stats
	for _, p := range c.parts {
		s := p.StatsSnapshot()
		agg.Accesses += s.Accesses
		agg.Reads += s.Reads
		agg.Writebacks += s.Writebacks
		agg.TagHits += s.TagHits
		agg.DataHits += s.DataHits
		agg.Misses += s.Misses
		agg.Fills += s.Fills
		agg.DataFills += s.DataFills
		agg.SAEs += s.SAEs
		agg.WritebacksToMem += s.WritebacksToMem
		agg.DeadDataEvictions += s.DeadDataEvictions
		agg.ReusedDataEvictions += s.ReusedDataEvictions
		agg.InterCoreEvictions += s.InterCoreEvictions
		agg.Flushes += s.Flushes
	}
	c.stats = agg
}

// Flush implements cachemodel.LLC.
func (c *Cache) Flush(line uint64, sdid uint8) bool {
	return c.part(sdid).Flush(line, sdid)
}

// Probe implements cachemodel.LLC.
func (c *Cache) Probe(line uint64, sdid uint8) (bool, bool) {
	return c.part(sdid).Probe(line, sdid)
}

// LookupPenalty implements cachemodel.LLC: partition selection is free.
func (c *Cache) LookupPenalty() int { return 0 }

// StatsSnapshot implements cachemodel.LLC. The aggregate is recomputed
// from the partitions on each call.
func (c *Cache) StatsSnapshot() cachemodel.Stats {
	c.accumulate()
	return c.stats
}

// ResetStats implements cachemodel.LLC.
func (c *Cache) ResetStats() {
	for _, p := range c.parts {
		p.ResetStats()
	}
	c.stats.Reset()
}

// Name implements cachemodel.LLC.
func (c *Cache) Name() string {
	return fmt.Sprintf("%s-%dd", c.kind, len(c.parts))
}

// Geometry implements cachemodel.LLC.
func (c *Cache) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       1,
		SetsPerSkew: c.cfg.Sets,
		WaysPerSkew: c.cfg.Ways,
		DataEntries: c.cfg.Sets * c.cfg.Ways,
		TagEntries:  c.cfg.Sets * c.cfg.Ways,
	}
}
