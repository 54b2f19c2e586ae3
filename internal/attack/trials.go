package attack

import (
	"context"

	"mayacache/internal/cachemodel"
	"mayacache/internal/mc"
	"mayacache/internal/metrics"
)

// This file routes the cacheFX-style attack drivers through the
// shard-parallel Monte-Carlo engine: every attack repetition — one
// occupancy-attack instance or one replacement-predictability trial —
// builds its own cache and victims from a per-trial seed, so repetitions
// share no state and fan across the pool. Results are collected in trial
// order, making every aggregate (median, fraction) a pure function of
// (seed, trials), independent of worker scheduling.

// Trials configures a parallel attack-repetition run.
type Trials struct {
	// Runs is the number of independent repetitions.
	Runs int
	// Workers bounds pool parallelism (0 = harness.DefaultWorkers). It
	// never affects results, only wall clock.
	Workers int
	// Seed is the base seed for per-trial derivation: trial i runs at
	// Seed + i*stride, with a stride of 1000003 for occupancy attacks and
	// 1 otherwise.
	Seed uint64
}

// trialSeed derives the seed of one repetition.
func (tr Trials) trialSeed(trial int, stride uint64) uint64 {
	return tr.Seed + uint64(trial)*stride
}

func (tr Trials) runs() int {
	if tr.Runs < 1 {
		return 1
	}
	return tr.Runs
}

// MedianDistinguishCtx runs independent occupancy-attack instances across
// the pool and returns the median number of samples Distinguish needed,
// mirroring the paper's median-of-runs methodology.
func (tr Trials) MedianDistinguishCtx(ctx context.Context,
	mkCache func(seed uint64) cachemodel.LLC, mkVictims func(c cachemodel.LLC) (Victim, Victim),
	occupancyLines, noiseLines, maxSamples int, threshold float64) (float64, error) {
	results, err := mc.ForEach(ctx, tr.Workers, tr.runs(), func(ctx context.Context, i int) (float64, error) {
		s := tr.trialSeed(i, 1000003)
		c := mkCache(s)
		va, vb := mkVictims(c)
		o := NewOccupancy(OccupancyConfig{
			Cache:          c,
			OccupancyLines: occupancyLines,
			SDID:           1,
			NoiseLines:     noiseLines,
			Seed:           s,
		})
		return float64(o.Distinguish(va, vb, threshold, maxSamples)), nil
	})
	if err != nil {
		return 0, err
	}
	return metrics.Median(results), nil
}

// ReplacementPredictabilityCtx returns the fraction of trials in which
// the attacker-conditioned fill evicted the planted victim line (see
// reloadrefresh.go). Trials fan across the pool, each on its own cache
// instance with its own victim line, so the fraction is a pure function
// of (seed, trials).
func (tr Trials) ReplacementPredictabilityCtx(ctx context.Context,
	mk func(seed uint64) cachemodel.LLC) (float64, error) {
	hits, err := mc.ForEach(ctx, tr.Workers, tr.runs(), func(ctx context.Context, i int) (int, error) {
		s := tr.trialSeed(i, 1)
		if predictabilityTrial(mk, s) {
			return 1, nil
		}
		return 0, nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(len(hits)), nil
}
