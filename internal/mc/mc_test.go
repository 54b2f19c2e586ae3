package mc

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"mayacache/internal/rng"
)

func TestPlanGrid(t *testing.T) {
	plan, err := Plan(Spec{Seed: 9, Iters: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	wantIters := []uint64{3, 3, 2, 2} // 10 = 4*2 + remainder 2 on shards 0,1
	for i, s := range plan {
		if s.Index != i || s.Shards != 4 {
			t.Fatalf("shard %d mislabeled: %+v", i, s)
		}
		if s.Iters != wantIters[i] {
			t.Fatalf("shard %d iters %d, want %d", i, s.Iters, wantIters[i])
		}
		if s.Seed != rng.Stream(9, uint64(i)) {
			t.Fatalf("shard %d seed %#x, want Stream-derived", i, s.Seed)
		}
		total += s.Iters
	}
	if total != 10 {
		t.Fatalf("plan covers %d iterations, want 10", total)
	}
}

// TestPlanLegacySeed pins the compatibility rule: a one-shard plan runs on
// the raw base seed, so `-shards 1` drivers reproduce pre-engine serial
// output byte for byte.
func TestPlanLegacySeed(t *testing.T) {
	plan, err := Plan(Spec{Seed: 42, Iters: 5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].Seed != 42 || plan[0].Iters != 5 {
		t.Fatalf("legacy plan %+v", plan)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero iters", Spec{Seed: 1, Iters: 0, Shards: 2}, false},
		{"negative shards", Spec{Seed: 1, Iters: 10, Shards: -1}, false},
		{"shards exceed iters", Spec{Seed: 1, Iters: 3, Shards: 4}, false},
		{"ok", Spec{Seed: 1, Iters: 10, Shards: 2}, true},
		{"auto shards", Spec{Seed: 1, Iters: 1 << 20}, true},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: validation passed, want error", c.name)
			} else if !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: error %v does not wrap ErrBadSpec", c.name, err)
			}
		}
	}
}

// runPlan is a sharded run as production composes it
// (buckets.RunShardedMulti): ForEach over the plan's shards on a pool of
// the given width.
func runPlan[T any](ctx context.Context, spec Spec, workers int, fn func(ctx context.Context, s Shard) (T, error)) ([]T, error) {
	plan, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	return ForEach(ctx, workers, len(plan), func(ctx context.Context, i int) (T, error) {
		return fn(ctx, plan[i])
	})
}

// shardDigest is a deterministic stand-in for a Monte-Carlo shard body:
// it folds the shard's whole random stream into one value, so any
// scheduling-dependent difference in results shows up as a digest change.
func shardDigest(s Shard) uint64 {
	r := rng.New(s.Seed)
	var h uint64
	for i := uint64(0); i < s.Iters; i++ {
		h = h*0x100000001b3 ^ r.Uint64()
	}
	return h ^ uint64(s.Index)
}

// TestRunSchedulingInvariance is the engine-level shard-invariance
// property: for a fixed (seed, iters, shards) plan, the ordered result
// slice is identical whatever the worker count — including a serial pool —
// so merged statistics can never depend on scheduling.
func TestRunSchedulingInvariance(t *testing.T) {
	spec := Spec{Seed: 7, Iters: 10_000, Shards: 16}
	var want []uint64
	for _, workers := range []int{1, 2, 7, 16} {
		got, err := runPlan(context.Background(), spec, workers, func(_ context.Context, s Shard) (uint64, error) {
			return shardDigest(s), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from serial pool", workers)
		}
	}
}

func TestRunShardError(t *testing.T) {
	boom := errors.New("boom")
	_, err := runPlan(context.Background(), Spec{Seed: 1, Iters: 8, Shards: 4}, 2,
		func(_ context.Context, s Shard) (int, error) {
			if s.Index == 2 {
				return 0, boom
			}
			return s.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	_, err := runPlan(context.Background(), Spec{Seed: 1, Iters: 4, Shards: 2}, 2,
		func(_ context.Context, s Shard) (int, error) {
			if s.Index == 1 {
				panic("shard exploded")
			}
			return 0, nil
		})
	if err == nil {
		t.Fatal("panicking shard returned nil error")
	}
}

// TestRunCancellationHammer repeatedly cancels a pool mid-run. Under
// -race this doubles as the engine's data-race check: shards hammer a
// shared Tracker while the parent context dies underneath them.
func TestRunCancellationHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		tr := NewTracker(1<<20, nil)
		started := make(chan struct{}, 64)
		var once sync.Once
		go func() {
			<-started // cancel only after at least one shard is live
			cancel()
		}()
		_, err := runPlan(ctx, Spec{Seed: uint64(round), Iters: 1 << 20, Shards: 32}, 4,
			func(ctx context.Context, s Shard) (uint64, error) {
				once.Do(func() { started <- struct{}{} })
				var h uint64
				r := rng.New(s.Seed)
				for i := uint64(0); i < s.Iters; i += 1024 {
					if ctx.Err() != nil {
						return 0, ctx.Err()
					}
					for j := 0; j < 1024; j++ {
						h ^= r.Uint64()
					}
					tr.Add(1024)
				}
				return h, nil
			})
		cancel()
		if err == nil {
			// The pool can finish legitimately if cancellation lost the
			// race; that is not a failure of the engine.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled in chain", round, err)
		}
	}
}

func TestForEachOrdered(t *testing.T) {
	got, err := ForEach(context.Background(), 4, 9, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("job %d result %d, want %d", i, v, i*i)
		}
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.Add(5) // must not panic
	if tr.Done() != 0 || tr.Total() != 0 {
		t.Fatal("nil tracker reports nonzero progress")
	}
	calls := 0
	tr = NewTracker(10, func(done, total uint64) {
		calls++
		if total != 10 {
			t.Fatalf("total %d, want 10", total)
		}
	})
	tr.Add(3)
	tr.Add(7)
	if tr.Done() != 10 || calls != 2 {
		t.Fatalf("done=%d calls=%d", tr.Done(), calls)
	}
}

// TestTrackerContext: WithTracker/TrackerFrom round-trip, and absence
// yields nil (which every Tracker method accepts).
func TestTrackerContext(t *testing.T) {
	if got := TrackerFrom(context.Background()); got != nil {
		t.Fatalf("empty context yielded tracker %v", got)
	}
	tr := NewTracker(10, nil)
	ctx := WithTracker(context.Background(), tr)
	if got := TrackerFrom(ctx); got != tr {
		t.Fatalf("TrackerFrom = %v, want the attached tracker", got)
	}
	// A nil tracker attaches and retrieves cleanly.
	ctx = WithTracker(context.Background(), nil)
	if got := TrackerFrom(ctx); got != nil {
		t.Fatalf("nil tracker round-tripped as %v", got)
	}
	got := TrackerFrom(ctx)
	got.Add(3) // nil-safe
	if got.Done() != 0 {
		t.Fatal("nil tracker accumulated")
	}
}
