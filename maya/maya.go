// Package maya is the public API of the Maya cache reproduction: a
// storage-efficient, secure, fully-associative-by-illusion last-level
// cache (Bhatla, Navneet & Panda, ISCA 2024), together with the designs it
// is evaluated against (Mirage, a conventional baseline, the CEASER
// family), a multi-core cache-hierarchy simulator, synthetic SPEC/GAP-like
// workloads, the bucket-and-balls + analytical security models, a
// cacheFX-style attack framework, and storage/energy/area accounting.
//
// Quick start:
//
//	cache, err := maya.NewCache(maya.DefaultCacheConfig(1))
//	res := cache.Access(maya.Access{Line: 0x1234, Type: maya.Read})
//	// res.TagHit == false: first touch installs a priority-0 tag only.
//
// Run a workload through a full system:
//
//	sys, err := maya.NewSystem(maya.SystemConfig{
//	    Workloads: []string{"mcf", "mcf", "lbm", "lbm"},
//	    Design:    maya.DesignMaya,
//	})
//	results, err := sys.Run(ctx, maya.RunSpec{Warmup: 1_000_000, ROI: 500_000})
//
// See the examples directory and the cmd tools for complete experiment
// drivers.
package maya

import (
	"context"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/ceaser"
	"mayacache/internal/core"
	"mayacache/internal/mirage"
	"mayacache/internal/trace"
)

// Core access types, re-exported from the internal model.
type (
	// Access is one LLC transaction.
	Access = cachemodel.Access
	// Result is the outcome of an Access.
	Result = cachemodel.Result
	// LLC is the interface every cache design implements.
	LLC = cachemodel.LLC
	// Stats holds a design's counters.
	Stats = cachemodel.Stats
	// Geometry describes a design's structure.
	Geometry = cachemodel.Geometry
	// IndexHasher maps (skew, line) to set indices.
	IndexHasher = cachemodel.IndexHasher
)

// Access types.
const (
	// Read is a demand access.
	Read = cachemodel.Read
	// Writeback is a dirty L2 eviction.
	Writeback = cachemodel.Writeback
)

// CacheConfig parameterizes the Maya cache.
type CacheConfig = core.Config

// DefaultCacheConfig returns the paper's 12MB Maya configuration (2 skews
// x 16K sets x 6 base + 3 reuse + 6 invalid ways).
func DefaultCacheConfig(seed uint64) CacheConfig { return core.DefaultConfig(seed) }

// Cache is the Maya cache.
type Cache = core.Maya

// NewCache constructs a Maya cache, reporting configuration errors.
func NewCache(cfg CacheConfig) (*Cache, error) { return core.NewChecked(cfg) }

// MirageConfig parameterizes the Mirage comparator.
type MirageConfig = mirage.Config

// NewMirage constructs a Mirage cache, reporting configuration errors.
func NewMirage(cfg MirageConfig) (*mirage.Mirage, error) { return mirage.NewChecked(cfg) }

// DefaultMirageConfig returns the paper's 16MB Mirage configuration.
func DefaultMirageConfig(seed uint64) MirageConfig { return mirage.DefaultConfig(seed) }

// BaselineConfig parameterizes a conventional set-associative cache.
type BaselineConfig = baseline.Config

// NewBaseline constructs a conventional set-associative cache, reporting
// configuration errors.
func NewBaseline(cfg BaselineConfig) (*baseline.SetAssoc, error) { return baseline.NewChecked(cfg) }

// Replacement policies for BaselineConfig.
const (
	LRU        = baseline.LRU
	SRRIP      = baseline.SRRIP
	BRRIP      = baseline.BRRIP
	DRRIP      = baseline.DRRIP
	RandomRepl = baseline.RandomRepl
)

// NewFullyAssociative constructs a true fully-associative cache with
// random replacement (the security gold standard), reporting
// configuration errors.
func NewFullyAssociative(capacity int, seed uint64, matchSDID bool) (*baseline.FullyAssociative, error) {
	return baseline.NewFullyAssociativeChecked(capacity, seed, matchSDID)
}

// CeaserConfig parameterizes the CEASER-family designs.
type CeaserConfig = ceaser.Config

// CEASER-family variants.
const (
	CEASER       = ceaser.CEASER
	CEASERS      = ceaser.CEASERS
	ScatterCache = ceaser.ScatterCache
)

// NewCeaser constructs a CEASER/CEASER-S/Scatter-Cache design, reporting
// configuration errors.
func NewCeaser(cfg CeaserConfig) (*ceaser.Cache, error) { return ceaser.NewChecked(cfg) }

// Design names a registered cache design for the system builder: the
// constants below or any other registered name, such as "Maya-ISO",
// "Mirage-Lite" or "CEASER-S".
type Design string

// The paper's three headline designs for SystemConfig.
const (
	DesignBaseline Design = "Baseline"
	DesignMirage   Design = "Mirage"
	DesignMaya     Design = "Maya"
)

// SystemConfig assembles a multi-core simulation: one workload name per
// core (see Workloads for the registry) and a shared LLC design scaled to
// 2MB baseline-equivalent per core.
type SystemConfig struct {
	// Workloads lists one benchmark name per core. An empty list is an
	// error wrapping cachemodel.ErrBadConfig.
	Workloads []string
	// Design selects the shared LLC by registered name (empty means
	// DesignBaseline), ignored if LLC is set. An unknown name is an error
	// wrapping cachemodel.ErrBadConfig.
	Design Design
	// LLC optionally supplies a custom LLC instance.
	LLC LLC
	// Seed drives all randomness.
	Seed uint64
	// FastHash uses the non-cryptographic index hasher in randomized
	// designs (recommended for bulk sweeps; PRINCE otherwise).
	FastHash bool
}

// System is a runnable multi-core simulation.
type System struct {
	inner *cachesim.System
}

// SystemResults re-exports the simulator's results.
type SystemResults = cachesim.Results

// NewSystem builds a system from cfg.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Workloads) == 0 {
		return nil, cachemodel.BadConfigf("maya: a system needs at least one workload")
	}
	gens := make([]trace.Generator, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		p, err := trace.Lookup(name)
		if err != nil {
			return nil, err
		}
		g, err := trace.NewGenerator(p, i, cfg.Seed)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	llc := cfg.LLC
	if llc == nil {
		design := cfg.Design
		if design == "" {
			design = DesignBaseline
		}
		var err error
		llc, err = cachemodel.Build(string(design), cachemodel.BuildOptions{
			Cores:    len(cfg.Workloads),
			Seed:     cfg.Seed,
			FastHash: cfg.FastHash,
		})
		if err != nil {
			return nil, err
		}
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(cfg.Workloads),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  cachesim.DefaultDRAMConfig(),
		Seed:  cfg.Seed,
	}, gens)
	return &System{inner: sys}, nil
}

// RunSpec re-exports the simulator's run specification: instruction
// budgets plus an optional checkpoint cell.
type RunSpec = cachesim.RunSpec

// Run simulates spec.Warmup then spec.ROI instructions per core and
// returns the results, with cancellation via ctx and checkpoint/resume
// through spec.Cell. A run is single-threaded; run several Systems at
// once for parallelism.
func (s *System) Run(ctx context.Context, spec RunSpec) (SystemResults, error) {
	return cachesim.Run(ctx, s.inner, spec)
}

// LLC returns the design under test for post-run inspection.
func (s *System) LLC() LLC { return s.inner.LLC() }

// Workloads returns the names of all registered synthetic benchmarks.
func Workloads() []string { return trace.Names() }

// WorkloadProfile exposes a benchmark's mixture parameters.
type WorkloadProfile = trace.Profile

// LookupWorkload returns a registered benchmark profile.
func LookupWorkload(name string) (WorkloadProfile, error) { return trace.Lookup(name) }
