package main

import (
	"runtime"
	"time"

	"mayacache/internal/buckets"
	"mayacache/internal/experiments"
	"mayacache/internal/mc"
)

// secSpec is the Fig 7 run of secmc: maxWorkers shards, fanned over the
// given number of workers (which never changes a result).
func secSpec(r *runner, workers int) experiments.SecuritySpec {
	return experiments.SecuritySpec{
		Buckets: r.sc.MCBuckets, Iters: r.sc.MCIters, Seed: r.seed,
		Shards: maxWorkers, Workers: workers,
	}
}

// secSetup builds the per-shard models a Fig 7 run starts from: each
// shard's Maya bucket model at its steady-state population, seeded as the
// shard plan seeds it.
func secSetup(r *runner) error {
	plan, err := mc.Plan(mc.Spec{Seed: r.seed, Iters: r.sc.MCIters, Shards: maxWorkers})
	if err != nil {
		return err
	}
	for _, sh := range plan {
		buckets.New(buckets.MayaDefault(r.sc.MCBuckets, sh.Seed))
	}
	return nil
}

// fig7 runs one Fig 7 Monte-Carlo run and checks its merged result.
func fig7(r *runner, workers int) (*buckets.ShardedResult, time.Duration, error) {
	r.attempted++
	runtime.GC()
	t := time.Now()
	res, err := experiments.Fig7(r.ctx, secSpec(r, workers))
	el := time.Since(t)
	if err != nil {
		return nil, el, err
	}
	sum, err := digest(res)
	if err != nil {
		return nil, el, err
	}
	want := ""
	if p := r.pinned(); p != nil {
		want = p.MC
	}
	r.agree("Fig 7 result", sum, want, 1)
	return res, el, nil
}

// runSecMC measures secmc: one op is a Fig 7 run, its shards on one
// worker.
func runSecMC(r *runner) error {
	if err := r.timeSetups(func() (func() error, error) { return nil, secSetup(r) }); err != nil {
		return err
	}
	r.startWindow()
	for n := 0; r.more(n); n++ {
		_, el, err := fig7(r, 1)
		if err != nil {
			return err
		}
		r.opMS = append(r.opMS, ms(el))
		r.yardstick()
	}
	r.note("mc_miters_per_s", float64(r.sc.MCIters)/1e6/(r.opP50()/1e3), "Miter/s")
	return nil
}

// traceSecMC separates the model from the engine: each pass runs Fig 7
// on one worker (the model's serial speed) and on maxWorkers (the shard
// fan-out's speedup over it).
func traceSecMC(r *runner) (map[string]float64, error) {
	return r.passes(func() (map[string]float64, error) {
		res, serial, err := fig7(r, 1)
		if err != nil {
			return nil, err
		}
		_, par, err := fig7(r, maxWorkers)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"mc.serial_miters_per_s": float64(res.Iterations) / 1e6 / serial.Seconds(),
			"mc.shard_speedup":       serial.Seconds() / par.Seconds(),
			"buckets.spills":         float64(res.Spills),
		}, nil
	})
}
