// Package experiments wires workloads, cache designs, and the simulator
// into the paper's numbered experiments. Every figure and table in the
// evaluation has a function here; cmd tools and the benchmark harness are
// thin wrappers over them.
package experiments

import (
	"mayacache/internal/cachemodel"

	// The designs register their registry factories in init(); the blank
	// imports make every named design buildable through NewLLCChecked even
	// though nothing here references the packages directly.
	_ "mayacache/internal/baseline"
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

// Design names a cache design under test.
type Design string

// The designs compared in the paper.
const (
	DesignBaseline   Design = "Baseline"
	DesignMirage     Design = "Mirage"
	DesignMirageLite Design = "Mirage-Lite"
	DesignMaya       Design = "Maya"
	DesignMayaISO    Design = "Maya-ISO"
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

// buildOptions translates LLCOptions into the registry's BuildOptions.
func (o LLCOptions) buildOptions() cachemodel.BuildOptions {
	return cachemodel.BuildOptions{Cores: o.Cores, Seed: o.Seed, FastHash: o.FastHash}
}

// NewLLCChecked constructs the named design scaled to opts.Cores through
// the cachemodel registry, returning an error wrapping
// cachemodel.ErrBadConfig for unknown designs or invalid geometry.
func NewLLCChecked(d Design, opts LLCOptions) (cachemodel.LLC, error) {
	return cachemodel.Build(string(d), opts.buildOptions())
}
