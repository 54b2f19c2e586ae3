package buckets

import (
	"context"
	"fmt"

	"mayacache/internal/mc"
)

// This file routes the bucket-and-balls model through the shard-parallel
// Monte-Carlo engine (internal/mc). The model is embarrassingly parallel:
// a 10^12-iteration security run is K independent models, each started at
// the steady-state population with its own derived seed, whose statistics
// merge by summation. The merged result is a pure function of
// (Config.Seed, Iters, Shards) — worker count and scheduling never change
// a number — and a one-shard run reproduces the historical serial model
// byte for byte (mc's legacy seed rule).

// NoSpill is the FirstSpills sentinel for a shard that never spilled.
const NoSpill = ^uint64(0)

// progressGrain is the iteration sub-chunk between context checks and
// progress reports inside one shard.
const progressGrain = 1 << 16

// ShardedRun parameterizes one shard-parallel model run.
type ShardedRun struct {
	// Config is the model configuration; Config.Seed is the base seed
	// that per-shard seeds are derived from.
	Config Config
	// Iters is the total iteration budget across all shards.
	Iters uint64
	// Shards is the independent-stream count (0 = one per CPU). Part of
	// the experiment definition: results depend on it deterministically.
	Shards int
	// Workers bounds pool parallelism (0 = one per CPU); scheduling only.
	Workers int
	// Samples, when positive, splits each shard's budget into Samples
	// equal chunks and samples the occupancy histogram after each (the
	// Fig 7 cadence; each shard then executes floor(budget/Samples)*
	// Samples iterations, exactly like the serial driver did). It may not
	// exceed the smallest shard's budget, floor(Iters/Shards): a shard
	// cannot sample after a chunk of zero iterations.
	Samples int
	// UntilSpill stops each shard at its first spill instead of running
	// its full budget (the Section VI first-spill measurement).
	UntilSpill bool
	// Tracker, when non-nil, receives iteration progress from all shards.
	Tracker *mc.Tracker
}

// shardOutcome is one shard's raw statistics, merged in shard order.
type shardOutcome struct {
	iters      uint64
	installs   uint64
	spills     uint64
	firstSpill uint64 // NoSpill when spills == 0
	hist       []uint64
	histEvents uint64
}

// ShardedResult is the deterministic merge of all shard outcomes.
type ShardedResult struct {
	// Shards is the shard count the run executed with.
	Shards int
	// Iterations, Installs, Spills are summed over shards.
	Iterations uint64
	Installs   uint64
	Spills     uint64
	// Hist and HistEvents merge the per-shard occupancy histograms
	// (raw counts; Histogram normalizes).
	Hist       []uint64
	HistEvents uint64
	// FirstSpills is each shard's first-spill iteration (NoSpill when the
	// shard never spilled) — the first-spill distribution across K
	// independent experiments.
	FirstSpills []uint64
	// FirstSpillIter is the first spill's position on the concatenated
	// shard timeline (shard 0's iterations, then shard 1's, ...), valid
	// when Spilled. For one shard this is exactly the serial model's
	// first-spill iteration.
	FirstSpillIter uint64
	// Spilled reports whether any shard spilled.
	Spilled bool

	// bucketsPerEvent is the total bucket count of one shard's model,
	// kept for histogram normalization (derived state, not a statistic).
	bucketsPerEvent uint64
}

// Histogram returns the merged Pr(n = N) occupancy distribution.
func (r *ShardedResult) Histogram() []float64 {
	out := make([]float64, len(r.Hist))
	if r.HistEvents == 0 {
		return out
	}
	// Each histogram sample event covers every bucket of one shard's
	// model; all shards share a geometry, so the normalization matches
	// the serial Model.Histogram.
	total := float64(r.HistEvents) * float64(r.bucketsPerEvent)
	for i, c := range r.Hist {
		out[i] = float64(c) / total
	}
	return out
}

// RunSharded executes the model across shards and merges the outcomes.
// Cancelling ctx aborts the run with the context's error.
func RunSharded(ctx context.Context, run ShardedRun) (*ShardedResult, error) {
	res, err := RunShardedMulti(ctx, run.Workers, run)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunShardedMulti executes several independent sharded runs (for example
// Fig 6's capacity sweep) by flattening every (run, shard) pair onto one
// bounded worker pool, so a slow run cannot serialize behind a fast one.
// Results come back in run order and each is identical to what RunSharded
// would produce for that run alone: per-run shard plans, seeds, and merge
// order are unchanged by the flattening. The per-run Workers field is
// ignored; the pool width is the workers argument (0 = one per CPU).
func RunShardedMulti(ctx context.Context, workers int, runs ...ShardedRun) ([]*ShardedResult, error) {
	type item struct {
		run   int
		shard mc.Shard
	}
	var flat []item
	for ri, run := range runs {
		if run.Samples < 0 {
			return nil, mc.BadSpecf("run %d: samples must be >= 0, got %d", ri, run.Samples)
		}
		if run.Samples > 0 && run.UntilSpill {
			return nil, mc.BadSpecf("run %d: samples and until-spill are mutually exclusive", ri)
		}
		plan, err := mc.Plan(mc.Spec{Seed: run.Config.Seed, Iters: run.Iters, Shards: run.Shards})
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", ri, err)
		}
		// The last shard has the smallest budget.
		if least := plan[len(plan)-1].Iters; uint64(run.Samples) > least {
			return nil, mc.BadSpecf("run %d: %d samples exceed the smallest shard's budget of %d iterations", ri, run.Samples, least)
		}
		for _, s := range plan {
			flat = append(flat, item{run: ri, shard: s})
		}
	}
	outcomes, err := mc.ForEach(ctx, workers, len(flat), func(ctx context.Context, i int) (shardOutcome, error) {
		it := flat[i]
		run := runs[it.run]
		cfg := run.Config
		cfg.Seed = it.shard.Seed
		out, oerr := runShard(ctx, cfg, it.shard.Iters, run.Samples, run.UntilSpill, run.Tracker)
		if oerr != nil {
			return out, fmt.Errorf("run %d shard %d/%d: %w", it.run, it.shard.Index, it.shard.Shards, oerr)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// flat is run-major and shard-minor, so per-run outcomes are a
	// contiguous slice already in shard-index order.
	results := make([]*ShardedResult, len(runs))
	next := 0
	for ri, run := range runs {
		nshards := 0
		for next+nshards < len(flat) && flat[next+nshards].run == ri {
			nshards++
		}
		results[ri] = mergeOutcomes(run, outcomes[next:next+nshards])
		next += nshards
	}
	return results, nil
}

// mergeOutcomes folds one run's per-shard statistics in shard order.
func mergeOutcomes(run ShardedRun, outcomes []shardOutcome) *ShardedResult {
	res := &ShardedResult{
		Shards:          len(outcomes),
		FirstSpills:     make([]uint64, len(outcomes)),
		bucketsPerEvent: uint64(run.Config.Skews * run.Config.BucketsPerSkew),
	}
	var offset uint64
	for i, o := range outcomes {
		res.Iterations += o.iters
		res.Installs += o.installs
		res.Spills += o.spills
		res.FirstSpills[i] = o.firstSpill
		if o.firstSpill != NoSpill && !res.Spilled {
			res.Spilled = true
			res.FirstSpillIter = offset + o.firstSpill
		}
		offset += o.iters
		if o.histEvents > 0 {
			if res.Hist == nil {
				res.Hist = make([]uint64, len(o.hist))
			}
			for n, c := range o.hist {
				res.Hist[n] += c
			}
			res.HistEvents += o.histEvents
		}
	}
	return res
}

// runShard executes one shard's model serially, checking ctx and
// reporting progress every progressGrain iterations.
func runShard(ctx context.Context, cfg Config, budget uint64, samples int, untilSpill bool, tr *mc.Tracker) (shardOutcome, error) {
	m := New(cfg)
	runChunk := func(n uint64) error {
		for n > 0 {
			step := n
			if step > progressGrain {
				step = progressGrain
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			m.Run(step)
			tr.Add(step)
			n -= step
		}
		return nil
	}
	switch {
	case untilSpill:
		for m.Iterations() < budget {
			step := budget - m.Iterations()
			if step > progressGrain {
				step = progressGrain
			}
			if err := ctx.Err(); err != nil {
				return shardOutcome{}, err
			}
			before := m.Iterations()
			_, spilled := m.RunUntilSpill(step)
			tr.Add(m.Iterations() - before)
			if spilled {
				break
			}
		}
	case samples > 0:
		chunk := budget / uint64(samples)
		for i := 0; i < samples; i++ {
			if err := runChunk(chunk); err != nil {
				return shardOutcome{}, err
			}
			m.SampleHistogram()
		}
	default:
		if err := runChunk(budget); err != nil {
			return shardOutcome{}, err
		}
	}
	out := shardOutcome{
		iters:      m.Iterations(),
		installs:   m.Installs(),
		spills:     m.Spills(),
		firstSpill: NoSpill,
	}
	if fs, ok := m.FirstSpill(); ok {
		out.firstSpill = fs
	}
	out.hist, out.histEvents = m.HistCounts()
	if out.histEvents == 0 {
		out.hist = nil
	}
	return out, nil
}

// String summarizes the merged result for logs.
func (r *ShardedResult) String() string {
	return fmt.Sprintf("shards=%d iters=%d installs=%d spills=%d", r.Shards, r.Iterations, r.Installs, r.Spills)
}
