// Package mc is the shard-parallel Monte-Carlo engine underneath the
// security models, the attack-trial drivers, and the multi-seed sweeps.
//
// The paper's security argument is sample-count arithmetic — "no SAE in
// 10^12+ ball throws" (Figs 6/7, Tables I/IV), with Mirage extrapolating
// to 10^16 — and every one of those samples is embarrassingly parallel:
// bucket-model iterations, attack trials, and per-seed simulations share
// no state. Plan turns an N-sample run into K independent shards with
// splitmix64-derived per-shard seeds (rng.Stream). ForEach executes jobs
// on a bounded worker pool (reusing the resilient pool in
// internal/harness, so panics become errors and cancellation propagates)
// and hands results back in job-index order, so the caller's merge is
// deterministic. A sharded run is ForEach over a plan's shards, as in
// buckets.RunShardedMulti.
//
// The determinism contract: a plan is a pure function of (Seed, Iters,
// Shards), and ForEach returns results in job order whatever the worker
// count, so a left-to-right merge of a pure shard body's results is a
// pure function of (Seed, Iters, Shards) too. Worker count and goroutine
// scheduling can change only wall-clock time, never a result. Shard
// seeding follows one compatibility rule: a one-shard plan uses the base
// seed unchanged, so `-shards 1` reproduces the historical serial runs
// byte for byte; multi-shard plans derive shard i's seed as
// rng.Stream(Seed, i).
package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"mayacache/internal/harness"
	"mayacache/internal/rng"
)

// ErrBadSpec tags shard-plan validation failures so drivers can map them
// to their usage-error exit status (exit 2), mirroring cachemodel's
// ErrBadConfig taxonomy.
var ErrBadSpec = errors.New("mc: invalid spec")

// BadSpecf builds an ErrBadSpec-wrapped error.
func BadSpecf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Spec describes one shard-parallel Monte-Carlo run.
type Spec struct {
	// Seed is the base seed; per-shard seeds are derived from it.
	Seed uint64
	// Iters is the total iteration count, split across shards.
	Iters uint64
	// Shards is the number of independent shards (statistical streams).
	// It is part of the experiment definition: results are a pure
	// function of (Seed, Iters, Shards). 0 selects DefaultShards.
	Shards int
}

// DefaultShards is the default shard count: one per available CPU, so the
// default run saturates the machine.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// Shard is one unit of the plan: an independent stream with its own seed
// and iteration budget.
type Shard struct {
	// Index is the shard's position in [0, Shards); merges fold results
	// in Index order.
	Index int
	// Shards is the plan's total shard count.
	Shards int
	// Seed is the shard's derived stream seed.
	Seed uint64
	// Iters is the shard's iteration budget. Budgets differ by at most
	// one across a plan (the remainder lands on the lowest indices).
	Iters uint64
}

// Validate checks a spec without building the plan.
func (s Spec) Validate() error {
	shards := s.Shards
	if shards == 0 {
		shards = DefaultShards()
	}
	if shards < 1 {
		return BadSpecf("shards must be >= 1, got %d", s.Shards)
	}
	if s.Iters == 0 {
		return BadSpecf("iters must be positive")
	}
	if uint64(shards) > s.Iters {
		return BadSpecf("%d shards exceed %d iterations: a shard cannot run a fractional iteration", shards, s.Iters)
	}
	return nil
}

// ShardSeed is the plan's seed-derivation rule: the base seed itself for a
// one-shard plan (byte-identical to the historical serial runs), else
// rng.Stream(seed, shard).
func ShardSeed(seed uint64, shard, shards int) uint64 {
	if shards == 1 {
		return seed
	}
	return rng.Stream(seed, uint64(shard))
}

// Plan validates the spec and returns its deterministic shard grid:
// Iters/Shards iterations per shard with the remainder spread over the
// first Iters%Shards shards, seeds per ShardSeed.
func Plan(spec Spec) ([]Shard, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shards := spec.Shards
	if shards == 0 {
		shards = DefaultShards()
	}
	per := spec.Iters / uint64(shards)
	rem := spec.Iters % uint64(shards)
	plan := make([]Shard, shards)
	for i := range plan {
		iters := per
		if uint64(i) < rem {
			iters++
		}
		plan[i] = Shard{
			Index:  i,
			Shards: shards,
			Seed:   ShardSeed(spec.Seed, i, shards),
			Iters:  iters,
		}
	}
	return plan, nil
}

// ForEach fans n independent jobs (attack trials, per-seed repetitions,
// flattened sweep points) across the pool and returns results in index
// order. An error from fn comes back tagged with its job index, a panic
// in fn is recovered by the pool into an error, and a cancelled ctx stops
// launching jobs and surfaces ctx.Err(). The caller owns seed derivation
// per job — for a sharded run, job i is the plan's shard i. workers <= 0
// selects harness.DefaultWorkers.
func ForEach[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := harness.ParallelFor(ctx, workers, n, func(ctx context.Context, i int) error {
		v, ferr := fn(ctx, i)
		if ferr != nil {
			return fmt.Errorf("job %d/%d: %w", i, n, ferr)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Tracker accumulates completed iterations across concurrently running
// shards and forwards them to a progress callback. It is safe for
// concurrent use; a nil *Tracker is a valid no-op receiver, so shard
// bodies can report unconditionally.
type Tracker struct {
	total uint64
	done  atomic.Uint64
	fn    func(done, total uint64)
}

// NewTracker builds a tracker over total iterations. fn (may be nil) is
// invoked after every Add with the cumulative count; callers wanting a
// rate-limited progress line do their own throttling in fn.
func NewTracker(total uint64, fn func(done, total uint64)) *Tracker {
	return &Tracker{total: total, fn: fn}
}

// Add records delta completed iterations.
func (t *Tracker) Add(delta uint64) {
	if t == nil {
		return
	}
	done := t.done.Add(delta)
	if t.fn != nil {
		t.fn(done, t.total)
	}
}

// Done returns the cumulative completed-iteration count.
func (t *Tracker) Done() uint64 {
	if t == nil {
		return 0
	}
	return t.done.Load()
}

// Total returns the tracker's iteration target.
func (t *Tracker) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

type trackerCtxKey struct{}

// WithTracker attaches a Tracker to ctx so layers that cannot take one as
// a parameter (the simulator behind cachesim.Run) can still
// report progress. A nil tracker is fine: TrackerFrom returns it and all
// Tracker methods are nil-safe.
func WithTracker(ctx context.Context, t *Tracker) context.Context {
	return context.WithValue(ctx, trackerCtxKey{}, t)
}

// TrackerFrom returns the Tracker attached to ctx, or nil.
func TrackerFrom(ctx context.Context) *Tracker {
	t, _ := ctx.Value(trackerCtxKey{}).(*Tracker)
	return t
}
