package experiments

import (
	"context"
	"reflect"
	"testing"

	"mayacache/internal/buckets"
)

// secSpec is a reduced-scale spec for the security runners.
func secSpec(shards int) SecuritySpec {
	return SecuritySpec{Buckets: 256, Iters: 60_000, Seed: 7, Shards: shards, Workers: 2}
}

// TestFig6OneShardMatchesSerial pins the compatibility contract at the
// experiment layer: a one-shard Fig6 run reproduces the historical serial
// capacity sweep statistic for statistic.
func TestFig6OneShardMatchesSerial(t *testing.T) {
	spec := secSpec(1)
	points, err := Fig6(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig6Capacities) {
		t.Fatalf("%d points, want %d", len(points), len(Fig6Capacities))
	}
	for _, p := range points {
		cfg := buckets.MayaDefault(spec.Buckets, spec.Seed)
		cfg.Capacity = p.Capacity
		m := buckets.New(cfg)
		m.Run(spec.Iters)
		if p.Result.Iterations != m.Iterations() || p.Result.Spills != m.Spills() {
			t.Fatalf("capacity %d: sharded %v != serial iters=%d spills=%d",
				p.Capacity, p.Result, m.Iterations(), m.Spills())
		}
	}
}

// TestFig6FlattenEquivalence checks the capacity x shard flattening is
// invisible: each capacity point equals a standalone RunSharded at that
// capacity, whatever the pool width.
func TestFig6FlattenEquivalence(t *testing.T) {
	spec := secSpec(4)
	var want []Fig6Point
	for _, workers := range []int{1, 3} {
		s := spec
		s.Workers = workers
		points, err := Fig6(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = points
			for _, p := range points {
				cfg := buckets.MayaDefault(spec.Buckets, spec.Seed)
				cfg.Capacity = p.Capacity
				solo, serr := buckets.RunSharded(context.Background(), buckets.ShardedRun{
					Config: cfg, Iters: spec.Iters, Shards: spec.Shards, Workers: 1,
				})
				if serr != nil {
					t.Fatal(serr)
				}
				if !reflect.DeepEqual(p.Result, solo) {
					t.Fatalf("capacity %d: flattened result differs from standalone RunSharded", p.Capacity)
				}
			}
			continue
		}
		if !reflect.DeepEqual(points, want) {
			t.Fatalf("workers=%d: Fig6 results differ from workers=1", workers)
		}
	}
}

// TestFig7OneShardMatchesSerial pins the Fig 7 histogram path against the
// serial chunked Run+SampleHistogram cadence.
func TestFig7OneShardMatchesSerial(t *testing.T) {
	spec := secSpec(1)
	res, err := Fig7(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m := buckets.New(buckets.MayaDefault(spec.Buckets, spec.Seed))
	chunk := spec.Iters / Fig7Samples
	if chunk == 0 {
		chunk = 1
	}
	for i := 0; i < Fig7Samples; i++ {
		m.Run(chunk)
		m.SampleHistogram()
	}
	if !reflect.DeepEqual(res.Histogram(), m.Histogram()) {
		t.Fatal("one-shard Fig7 histogram differs from serial cadence")
	}
}

// TestNonDecoupledOneShardMatchesSerial pins the Section VI first-spill
// measurement against the serial RunUntilSpill.
func TestNonDecoupledOneShardMatchesSerial(t *testing.T) {
	spec := SecuritySpec{Buckets: 256, Iters: 200_000, Seed: 9, Shards: 1, Workers: 1}
	res, err := NonDecoupled(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m := buckets.New(buckets.ThresholdDefault(spec.Buckets, spec.Seed))
	n, spilled := m.RunUntilSpill(spec.Iters)
	if res.Spilled != spilled {
		t.Fatalf("spilled %v, serial %v", res.Spilled, spilled)
	}
	if spilled && res.FirstSpillIter != n {
		t.Fatalf("first spill at %d, serial at %d", res.FirstSpillIter, n)
	}
}

// TestFig6RejectsBadSpec covers validation pass-through at this layer.
func TestFig6RejectsBadSpec(t *testing.T) {
	spec := secSpec(1)
	spec.Iters = 0
	if _, err := Fig6(context.Background(), spec); err == nil {
		t.Fatal("zero-iteration Fig6 accepted")
	}
}
