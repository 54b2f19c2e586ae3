// Package mc is the fixture stand-in for the repo's Monte Carlo engine.
// Its path ends in internal/mc so the seedflow sanctioned-derivation rule
// (DefaultShards is a spec input despite consulting the machine) applies
// to the fixtures exactly as it does to the real package.
package mc

import "runtime"

// DefaultShards returns the machine-width default shard count. Shards is
// the third coordinate of the (seed, iters, shards) contract: results may
// depend on it by design.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }
