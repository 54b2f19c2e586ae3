package bench

import (
	"strings"
	"testing"
)

// TestMemoSpeedsUpRealHasher is the tentpole's performance claim as a
// test: with the production PRINCE hasher, the index memo must make the
// access path at least 1.5x faster than direct computation. The two
// measurements interleave in one process, so machine load cancels; the
// measured margin is ~4-5x, leaving ample headroom over the 1.5x gate.
func TestMemoSpeedsUpRealHasher(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const accesses = 200_000
	for _, d := range []string{"Maya", "Mirage", "CEASER-S"} {
		t.Run(d, func(t *testing.T) {
			off, err := runMicro(memoOffTwin(t, d, 1, 1), d, accesses, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			on, err := RunMicro(d, accesses, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if on.MemoHits == 0 {
				t.Fatalf("memo-on run recorded no memo hits (misses %d)", on.MemoMisses)
			}
			if off.MemoHits != 0 || off.MemoMisses != 0 {
				t.Fatalf("memo-off run recorded memo traffic: %d hits, %d misses", off.MemoHits, off.MemoMisses)
			}
			speedup := off.NsPerAccess / on.NsPerAccess
			if speedup < 1.5 {
				t.Errorf("%s: memo speedup %.2fx (on %.1f ns, off %.1f ns), want >= 1.5x",
					d, speedup, on.NsPerAccess, off.NsPerAccess)
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
	// Same-name rows in different tiers must not cross-match.
	tiered := &Report{Micro: []MicroResult{
		{Design: "Maya", RealHash: true, NsPerAccess: 80},
	}}
	if err := CompareMicro(tiered, base, 0.10); err != nil {
		t.Fatalf("real-tier row matched an overhead-tier baseline: %v", err)
	}
}

// TestCompareMacroSkipsCpusLimited checks that parallel rows recorded on
// a single-CPU machine are excluded from the macro gate whichever side
// carries the flag.
func TestCompareMacroSkipsCpusLimited(t *testing.T) {
	base := &Report{Macro: []MacroResult{
		{Design: "Maya", Parallelism: 1, EventsPerSec: 1000},
		{Design: "Mirage", Parallelism: 1, EventsPerSec: 1000},
		{Design: "Maya", Parallelism: 2, EventsPerSec: 900, CpusLimited: true},
	}}
	// The parallel row cratered, but it is cpus_limited in the baseline.
	cur := &Report{Macro: []MacroResult{
		{Design: "Maya", Parallelism: 1, EventsPerSec: 1000},
		{Design: "Mirage", Parallelism: 1, EventsPerSec: 1000},
		{Design: "Maya", Parallelism: 2, EventsPerSec: 100},
	}}
	if err := CompareMacro(cur, base, 0.10); err != nil {
		t.Fatalf("cpus_limited baseline row gated: %v", err)
	}
	// Same when only the current side carries the flag.
	base.Macro[2].CpusLimited = false
	cur.Macro[2].CpusLimited = true
	if err := CompareMacro(cur, base, 0.10); err != nil {
		t.Fatalf("cpus_limited current row gated: %v", err)
	}
	// And without the flag the same row is a real regression.
	cur.Macro[2].CpusLimited = false
	if err := CompareMacro(cur, base, 0.10); err == nil {
		t.Fatal("unflagged parallel regression not caught")
	}
}
