package clean

import (
	"os"
	"runtime"
	"time"

	"vetfixture/cachesim"
	"vetfixture/internal/mc"
	"vetfixture/rng"
)

// ElapsedMS reads the wall clock for observability only: the value flows
// to a return no sink consumes, which is exactly what timing code should
// look like.
func ElapsedMS(f func()) int64 {
	start := time.Now()
	f()
	return time.Since(start).Milliseconds()
}

// Verbose consults the environment for logging verbosity; the value never
// reaches state, results, snapshots, or seed material.
func Verbose() bool {
	return os.Getenv("MAYA_VERBOSE") != ""
}

// ShardedRand derives seed material from the shard count: shards is the
// third coordinate of the (seed, iters, shards) contract, so its
// machine-width default is a sanctioned derivation, not a leak.
func ShardedRand() *rng.Rand {
	return rng.New(uint64(mc.DefaultShards()))
}

// SeedFromKeys hashes map keys into a seed — safe because the sort
// launders the iteration-order taint before anything downstream reads it.
func SeedFromKeys(m map[string]int) *rng.Rand {
	keys := SortedKeys(m)
	var h uint64
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h = h*31 + uint64(k[i])
		}
	}
	return rng.New(h)
}

// runnerOpts reproduces the harness false-positive shape: Workers carries
// machine width (a scheduling knob), Seed is caller-provided, and the
// struct-level taint engine cannot tell the fields apart.
type runnerOpts struct {
	Workers int
	Seed    uint64
}

// NewRunnerRand needs the directive because opts as a whole is tainted by
// the Workers write even though Seed never touches NumCPU.
func NewRunnerRand(seed uint64) *rng.Rand {
	opts := runnerOpts{Seed: seed}
	opts.Workers = runtime.NumCPU()
	_ = opts.Workers
	//mayavet:ignore seedflow -- struct-level taint imprecision: Workers carries NumCPU, Seed is caller-provided
	return rng.New(opts.Seed)
}

// ParallelRunSpec fills the sanctioned scheduling knob from machine
// width. Field-level sanctioning keeps the rest of the struct clean: the
// budget that reaches seed material is caller-provided.
func ParallelRunSpec(warmup uint64) *rng.Rand {
	return cachesim.Run(cachesim.RunSpec{Warmup: warmup, Parallelism: runtime.GOMAXPROCS(0)})
}

// ParallelKnobWrite does the same through a field write after
// construction; the assignment must not taint the containing struct.
func ParallelKnobWrite(warmup uint64) *rng.Rand {
	spec := cachesim.RunSpec{Warmup: warmup}
	spec.Parallelism = runtime.NumCPU()
	return cachesim.Run(spec)
}
