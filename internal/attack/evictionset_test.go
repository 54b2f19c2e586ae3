package attack

import (
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/ceaser"
	"mayacache/internal/mirage"
)

// TestEvictionSetPinned pins both construction variants' exact results on
// a conventional, a CEASER and a Mirage cache at two seeds. The values
// were recorded when the two variants still had separate bodies, so the
// shared reduction must reproduce each one bit for bit: same pool, same
// tests in the same order, same access count.
func TestEvictionSetPinned(t *testing.T) {
	const sets = 64
	designs := map[string]func(seed uint64) cachemodel.LLC{
		"Baseline": func(seed uint64) cachemodel.LLC {
			return mustLLC(baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
		},
		"CEASER": func(seed uint64) cachemodel.LLC {
			return mustLLC(ceaser.NewChecked(ceaser.Config{Sets: sets, Ways: 16, Variant: ceaser.CEASER, Seed: seed}))
		},
		"Mirage": func(seed uint64) cachemodel.LLC {
			return mustLLC(mirage.NewChecked(mirage.Config{SetsPerSkew: sets, Skews: 2, BaseWays: 8, ExtraWays: 6, Seed: seed,
				Hasher: cachemodel.NewXorHasher(2, 6, seed)}))
		},
	}
	cases := []struct {
		flush  bool
		design string
		seed   uint64
		want   EvictionSetResult
	}{
		{false, "Baseline", 1, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 307036, SAEsObserved: 114535}},
		{false, "Baseline", 2, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 391722, SAEsObserved: 163160}},
		{false, "CEASER", 1, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 327666, SAEsObserved: 130446}},
		{false, "CEASER", 2, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 336300, SAEsObserved: 117659}},
		{false, "Mirage", 1, EvictionSetResult{Found: false, SetSize: 949, AccessesUsed: 1973462, SAEsObserved: 0}},
		{false, "Mirage", 2, EvictionSetResult{Found: false, SetSize: 949, AccessesUsed: 1964598, SAEsObserved: 0}},
		{true, "Baseline", 1, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 340094, SAEsObserved: 94810}},
		{true, "Baseline", 2, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 314380, SAEsObserved: 87201}},
		{true, "CEASER", 1, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 278860, SAEsObserved: 86244}},
		{true, "CEASER", 2, EvictionSetResult{Found: true, SetSize: 16, AccessesUsed: 348180, SAEsObserved: 98804}},
		{true, "Mirage", 1, EvictionSetResult{Found: false, SetSize: 1032, AccessesUsed: 2001214, SAEsObserved: 0}},
		{true, "Mirage", 2, EvictionSetResult{Found: false, SetSize: 1029, AccessesUsed: 2001558, SAEsObserved: 0}},
	}
	for _, tc := range cases {
		build := BuildEvictionSet
		if tc.flush {
			build = BuildEvictionSetFlushAssisted
		}
		got := build(designs[tc.design](tc.seed), 0x12345, sets*64, 2_000_000, tc.seed)
		if got != tc.want {
			t.Errorf("flush=%v %s seed %d: got %+v, want %+v", tc.flush, tc.design, tc.seed, got, tc.want)
		}
	}
}
