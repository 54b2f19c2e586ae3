package bench

import (
	"strings"
	"testing"
)

// TestMemoSpeedsUpRealHasher is the index memo's performance claim as a
// test: with the production PRINCE hasher, the index memo must make the
// access path at least 1.5x faster than direct computation. The two sides
// alternate in one process, memoRounds timed rounds each on the same two
// caches, and the fastest round of each side is compared — the estimator
// bestMacro uses, since interference only ever adds time. The measured
// margin is ~4-5x, leaving ample headroom over the 1.5x gate.
func TestMemoSpeedsUpRealHasher(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const accesses, memoRounds = 200_000, 3
	for _, d := range []string{"Maya", "Mirage", "CEASER-S"} {
		t.Run(d, func(t *testing.T) {
			offLLC := memoOffTwin(t, d, 1, 1)
			onLLC, err := buildLLC(d, 1, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			var off, on MicroResult
			for round := 0; round < memoRounds; round++ {
				o, err := runMicro(offLLC, d, accesses, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				if o.MemoHits != 0 || o.MemoMisses != 0 {
					t.Fatalf("memo-off run recorded memo traffic: %d hits, %d misses", o.MemoHits, o.MemoMisses)
				}
				n, err := runMicro(onLLC, d, accesses, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				if n.MemoHits == 0 {
					t.Fatalf("memo-on run recorded no memo hits (misses %d)", n.MemoMisses)
				}
				if round == 0 || o.NsPerAccess < off.NsPerAccess {
					off = o
				}
				if round == 0 || n.NsPerAccess < on.NsPerAccess {
					on = n
				}
			}
			speedup := off.NsPerAccess / on.NsPerAccess
			if speedup < 1.5 {
				t.Errorf("%s: memo speedup %.2fx (fastest of %d rounds: on %.1f ns, off %.1f ns), want >= 1.5x",
					d, speedup, memoRounds, on.NsPerAccess, off.NsPerAccess)
			}
		})
	}
}

// TestCompareMicro exercises the micro regression gate: matched rows are
// normalized by the run-wide geomean and gated per row; rows without a
// baseline counterpart (new real-tier rows against an old baseline) are
// skipped.
func TestCompareMicro(t *testing.T) {
	base := &Report{Micro: []MicroResult{
		{Design: "Maya", NsPerAccess: 20},
		{Design: "Mirage", NsPerAccess: 20},
		{Design: "Baseline", NsPerAccess: 10},
	}}
	// Uniform 2x slowdown is machine speed, not a regression.
	uniform := &Report{Micro: []MicroResult{
		{Design: "Maya", NsPerAccess: 40},
		{Design: "Mirage", NsPerAccess: 40},
		{Design: "Baseline", NsPerAccess: 20},
		{Design: "Maya", RealHash: true, NsPerAccess: 500}, // no counterpart: skipped
	}}
	if err := CompareMicro(uniform, base, 0.10); err != nil {
		t.Fatalf("uniform slowdown flagged: %v", err)
	}
	// One design 40% above trend is a regression.
	skewed := &Report{Micro: []MicroResult{
		{Design: "Maya", NsPerAccess: 28},
		{Design: "Mirage", NsPerAccess: 20},
		{Design: "Baseline", NsPerAccess: 10},
	}}
	err := CompareMicro(skewed, base, 0.10)
	if err == nil {
		t.Fatal("per-design micro regression not flagged")
	}
	if !strings.Contains(err.Error(), "Maya") {
		t.Fatalf("regression error does not name the offending design: %v", err)
	}
	// Same-name rows in different tiers must not cross-match: matched
	// against Maya's 20 ns overhead row, the 80 ns real-tier row would
	// sit far above the trend of the rows that do match.
	tiered := &Report{Micro: []MicroResult{
		{Design: "Maya", NsPerAccess: 20},
		{Design: "Mirage", NsPerAccess: 20},
		{Design: "Baseline", NsPerAccess: 10},
		{Design: "Maya", RealHash: true, NsPerAccess: 80},
	}}
	if err := CompareMicro(tiered, base, 0.10); err != nil {
		t.Fatalf("real-tier row matched an overhead-tier baseline: %v", err)
	}
}
