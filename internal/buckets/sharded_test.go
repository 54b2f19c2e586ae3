package buckets

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"mayacache/internal/mc"
)

// smallMaya is a reduced-geometry Maya config that spills never (capacity
// 15) — used where only iteration accounting matters.
func smallMaya(seed uint64) Config { return MayaDefault(256, seed) }

// spillyMaya lowers the capacity so spills are frequent enough for
// statistical comparison at test scale.
func spillyMaya(seed uint64) Config {
	cfg := MayaDefault(256, seed)
	cfg.Capacity = 10
	return cfg
}

// TestShardedOneShardMatchesSerial pins the compatibility contract: a
// one-shard run is the historical serial model, statistic for statistic
// (same seed, same RNG stream, same spill/install/iteration counts and
// histogram) — which is what keeps `securitysim -shards 1` byte-identical
// to pre-engine output.
func TestShardedOneShardMatchesSerial(t *testing.T) {
	const iters = 120_000
	cfg := spillyMaya(7)

	serial := New(cfg)
	serial.Run(iters)

	res, err := RunSharded(context.Background(), ShardedRun{Config: cfg, Iters: iters, Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != serial.Iterations() || res.Installs != serial.Installs() || res.Spills != serial.Spills() {
		t.Fatalf("sharded %v != serial iters=%d installs=%d spills=%d",
			res, serial.Iterations(), serial.Installs(), serial.Spills())
	}
	sf, sok := serial.FirstSpill()
	if res.Spilled != sok || (sok && res.FirstSpillIter != sf) {
		t.Fatalf("first spill %d/%v, serial %d/%v", res.FirstSpillIter, res.Spilled, sf, sok)
	}
}

// TestShardedOneShardFig7Cadence pins the histogram path the same way:
// one shard with the Fig 7 sampling cadence equals the serial driver's
// chunked Run+SampleHistogram loop.
func TestShardedOneShardFig7Cadence(t *testing.T) {
	const (
		iters   = 100_000
		samples = 40
	)
	cfg := spillyMaya(3)

	serial := New(cfg)
	chunk := uint64(iters / samples)
	for i := 0; i < samples; i++ {
		serial.Run(chunk)
		serial.SampleHistogram()
	}

	res, err := RunSharded(context.Background(), ShardedRun{
		Config: cfg, Iters: iters, Shards: 1, Workers: 1, Samples: samples,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Histogram(), serial.Histogram()) {
		t.Fatal("one-shard sharded histogram differs from serial Fig 7 cadence")
	}
}

// TestShardedSchedulingInvariance is the shard-invariance property test:
// for each shard count K in {1, 2, 7, 16}, the merged statistics are a
// pure function of (seed, iters, K) — every worker count, including the
// serial pool, produces the identical ShardedResult.
func TestShardedSchedulingInvariance(t *testing.T) {
	iters := uint64(64_000)
	if testing.Short() {
		iters = 16_000
	}
	for _, shards := range []int{1, 2, 7, 16} {
		var want *ShardedResult
		for _, workers := range []int{1, 2, 7, 16} {
			res, err := RunSharded(context.Background(), ShardedRun{
				Config: spillyMaya(11), Iters: iters, Shards: shards, Workers: workers,
			})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("shards=%d: workers=%d result differs from workers=1", shards, workers)
			}
		}
	}
}

// TestShardedStatisticalConsistency checks the shard decomposition is
// statistically sound: the spill rate of a spill-heavy configuration must
// agree across shard counts within a loose tolerance (each shard is an
// independent steady-state experiment, so rates — not counts — are the
// invariant).
func TestShardedStatisticalConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison needs full-size samples")
	}
	const iters = 400_000
	rates := map[int]float64{}
	for _, shards := range []int{1, 4, 16} {
		res, err := RunSharded(context.Background(), ShardedRun{
			Config: spillyMaya(5), Iters: iters, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Spills == 0 {
			t.Fatalf("shards=%d: spilly config produced no spills", shards)
		}
		rates[shards] = float64(res.Spills) / float64(res.Iterations)
	}
	base := rates[1]
	for shards, rate := range rates {
		if math.Abs(rate-base)/base > 0.15 {
			t.Fatalf("spill rate drifts with shard count: shards=%d rate=%.6f vs serial %.6f", shards, rate, base)
		}
	}
}

// TestShardedIterationAccounting checks the grid covers the budget
// exactly and progress tracking adds up.
func TestShardedIterationAccounting(t *testing.T) {
	const iters = 100_001 // deliberately not divisible by shards
	var mu sync.Mutex
	var last uint64
	tr := mc.NewTracker(iters, func(done, total uint64) {
		mu.Lock()
		if done > last {
			last = done
		}
		mu.Unlock()
	})
	res, err := RunSharded(context.Background(), ShardedRun{
		Config: smallMaya(1), Iters: iters, Shards: 7, Workers: 3, Tracker: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != iters {
		t.Fatalf("executed %d iterations, want %d", res.Iterations, iters)
	}
	if last != iters {
		t.Fatalf("tracker peaked at %d, want %d", last, iters)
	}
	// The Maya model performs two installs per iteration.
	if res.Installs != 2*iters {
		t.Fatalf("installs %d, want %d", res.Installs, 2*iters)
	}
}

// TestShardedFirstSpillDistribution checks the per-shard first-spill
// record: sentinel for clean shards, consistent FirstSpillIter merge.
func TestShardedFirstSpillDistribution(t *testing.T) {
	res, err := RunSharded(context.Background(), ShardedRun{
		Config: spillyMaya(2), Iters: 64_000, Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FirstSpills) != 8 {
		t.Fatalf("%d first-spill records, want 8", len(res.FirstSpills))
	}
	if !res.Spilled {
		t.Fatal("spilly config reported no spills")
	}
	// Recompute the concatenated-timeline first spill from the
	// distribution and per-shard budgets (all shards ran 8000 iters).
	var offset uint64
	for _, fs := range res.FirstSpills {
		if fs != NoSpill {
			if want := offset + fs; res.FirstSpillIter != want {
				t.Fatalf("FirstSpillIter %d, want %d", res.FirstSpillIter, want)
			}
			break
		}
		offset += 8000
	}
}

// TestShardedUntilSpill checks the Section VI mode: shards stop at their
// first spill, and a one-shard run matches the serial RunUntilSpill.
func TestShardedUntilSpill(t *testing.T) {
	const budget = 200_000
	cfg := ThresholdDefault(256, 9)

	serial := New(cfg)
	n, spilled := serial.RunUntilSpill(budget)

	res, err := RunSharded(context.Background(), ShardedRun{
		Config: cfg, Iters: budget, Shards: 1, Workers: 1, UntilSpill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spilled != spilled {
		t.Fatalf("spilled %v, serial %v", res.Spilled, spilled)
	}
	if spilled && res.FirstSpillIter != n {
		t.Fatalf("first spill at %d, serial at %d", res.FirstSpillIter, n)
	}
	if !spilled && res.Iterations != budget {
		t.Fatalf("clean run executed %d, want %d", res.Iterations, budget)
	}
}

// TestShardedCancellation hammers mid-run cancellation through the pool;
// under -race this is the concurrency check for the sharded path.
func TestShardedCancellation(t *testing.T) {
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 16)
		var once sync.Once
		tr := mc.NewTracker(1<<40, func(done, total uint64) {
			once.Do(func() { started <- struct{}{} })
		})
		go func() {
			<-started
			cancel()
		}()
		_, err := RunSharded(ctx, ShardedRun{
			Config: smallMaya(uint64(round)), Iters: 1 << 40, Shards: 16, Workers: 4, Tracker: tr,
		})
		cancel()
		if err == nil {
			t.Fatal("a 2^40-iteration run completed; cancellation was ignored")
		}
	}
}

// TestShardedRejectsBadSpec covers validation pass-through.
func TestShardedRejectsBadSpec(t *testing.T) {
	cases := []ShardedRun{
		{Config: smallMaya(1), Iters: 0, Shards: 1},
		{Config: smallMaya(1), Iters: 4, Shards: 8},
		{Config: smallMaya(1), Iters: 100, Shards: 1, Samples: -1},
		{Config: smallMaya(1), Iters: 100, Shards: 1, Samples: 2, UntilSpill: true},
		// Fewer iterations per shard than histogram samples: the smallest
		// shard's chunk would be zero.
		{Config: smallMaya(1), Iters: 100, Shards: 2, Samples: 200},
		{Config: smallMaya(1), Iters: 399, Shards: 2, Samples: 200},
	}
	for i, c := range cases {
		if _, err := RunSharded(context.Background(), c); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}
