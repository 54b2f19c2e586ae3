// Package experiments wires workloads, cache designs, and the simulator
// into the paper's numbered experiments. Every figure and table in the
// evaluation has a function here; cmd tools and the benchmark harness are
// thin wrappers over them.
package experiments

import (
	"mayacache/internal/cachemodel"

	// The families link their builders in init(); the blank imports make
	// every row of cachemodel's design table buildable here and in every
	// binary that imports this package.
	_ "mayacache/internal/baseline"
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

// Design names a cache design under test: a row of cachemodel's design
// table.
type Design string

// The designs of the paper's headline comparison.
const (
	DesignBaseline Design = "Baseline"
	DesignMirage   Design = "Mirage"
	DesignMaya     Design = "Maya"
)

// LLCOptions parameterizes design construction.
type LLCOptions struct {
	// Cores scales capacity (2MB baseline-equivalent per core).
	Cores int
	// Seed drives keys and randomness.
	Seed uint64
	// FastHash selects the non-cryptographic index hasher for bulk
	// performance sweeps (see cachemodel.XorHasher); security and attack
	// experiments leave it false to use PRINCE.
	FastHash bool
}

// NewLLCChecked constructs the named design scaled to opts.Cores through
// the cachemodel registry, returning an error wrapping
// cachemodel.ErrBadConfig for unknown designs or invalid geometry.
func NewLLCChecked(d Design, opts LLCOptions) (cachemodel.LLC, error) {
	return cachemodel.Build(string(d), cachemodel.BuildOptions{Cores: opts.Cores, Seed: opts.Seed, FastHash: opts.FastHash})
}
