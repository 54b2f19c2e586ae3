package attack

import (
	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// This file implements conflict-based eviction-set construction — the
// attack class Maya and Mirage eliminate. The attacker wants a set of its
// own lines that, when accessed, evicts a victim line via set conflicts
// (set-associative evictions). Against a conventional or CEASER-family
// cache this succeeds; against Maya/Mirage no SAEs occur, so the test set
// never evicts the victim through conflicts.

// EvictionSetResult reports one construction attempt.
type EvictionSetResult struct {
	// Found reports whether a conflict set reliably evicting the victim
	// was found.
	Found bool
	// SetSize is the size of the found set.
	SetSize int
	// AccessesUsed counts attacker cache accesses spent.
	AccessesUsed uint64
	// SAEsObserved counts the set-associative evictions the cache logged
	// during the attempt (the security-relevant signal).
	SAEsObserved uint64
}

// BuildEvictionSet attempts to construct an eviction set for victimLine
// against the given cache using the classic prime-and-test approach: fill
// with candidate lines, test whether the victim got evicted, and reduce by
// group testing. budget bounds total attacker accesses.
func BuildEvictionSet(c cachemodel.LLC, victimLine uint64, candidates int, budget uint64, seed uint64) EvictionSetResult {
	return buildEvictionSet(c, victimLine, candidatePool(candidates, seed^0xe71c7, 1<<27), budget, false)
}

// BuildEvictionSetFlushAssisted is the flush-based eviction attack of
// Section II-A ([12]): instead of re-priming candidate lines from memory
// between tests, the attacker *flushes its own lines*, which resets the
// candidate state far faster than natural eviction and speeds up set
// construction. The outcome class is unchanged (it still needs SAEs), but
// against conflict-prone designs it finds the set with fewer cache fills.
func BuildEvictionSetFlushAssisted(c cachemodel.LLC, victimLine uint64, candidates int, budget uint64, seed uint64) EvictionSetResult {
	return buildEvictionSet(c, victimLine, candidatePool(candidates, seed^0xf1e5, 1<<26), budget, true)
}

// candidatePool draws the attacker's candidate lines: random offsets
// above base.
func candidatePool(candidates int, seed, base uint64) []uint64 {
	r := rng.New(seed)
	pool := make([]uint64, candidates)
	for i := range pool {
		pool[i] = base + uint64(r.Uint32())
	}
	return pool
}

// buildEvictionSet is the reduction both variants share: test the whole
// pool, shrink it by group testing, then by single-line elimination, and
// accept a small set that evicts the victim twice in a row. With flush
// set, the attacker flushes its trial lines after every test so the next
// test starts from a clean state (one access per line instead of waiting
// out natural eviction).
func buildEvictionSet(c cachemodel.LLC, victimLine uint64, pool []uint64, budget uint64, flush bool) EvictionSetResult {
	const (
		attackerSDID = 7
		victimSDID   = 3
	)
	var res EvictionSetResult
	startSAEs := c.StatsSnapshot().SAEs

	victimIn := func() {
		c.Access(cachemodel.Access{Line: victimLine, Type: cachemodel.Read, SDID: victimSDID})
	}
	victimCached := func() bool {
		_, hit := c.Probe(victimLine, victimSDID)
		return hit
	}
	// conflicts reports whether accessing the given lines (twice, so
	// reuse-based designs allocate data) evicts a freshly-loaded victim.
	conflicts := func(lines []uint64) bool {
		victimIn()
		victimIn() // promote in reuse-based designs
		for pass := 0; pass < 2; pass++ {
			for _, l := range lines {
				res.AccessesUsed++
				c.Access(cachemodel.Access{Line: l, Type: cachemodel.Read, SDID: attackerSDID})
			}
		}
		out := !victimCached()
		if flush {
			for _, l := range lines {
				c.Flush(l, attackerSDID)
			}
		}
		return out
	}

	if res.AccessesUsed > budget || !conflicts(pool) {
		res.SAEsObserved = c.StatsSnapshot().SAEs - startSAEs
		return res
	}

	// Group-testing reduction (Vila et al.): split into ways+1 groups and
	// drop the first group whose removal preserves the conflict. With
	// more groups than the associativity, at least one group is always
	// removable while the set exceeds the associativity.
	const chunkCount = 17 // 16-way target caches
	set := append([]uint64(nil), pool...)
	for len(set) > 1 && res.AccessesUsed < budget {
		reduced := false
		chunk := (len(set) + chunkCount - 1) / chunkCount
		for start := 0; start < len(set) && res.AccessesUsed < budget; start += chunk {
			end := start + chunk
			if end > len(set) {
				end = len(set)
			}
			trial := append(append([]uint64(nil), set[:start]...), set[end:]...)
			if len(trial) == 0 {
				continue
			}
			if conflicts(trial) {
				set = trial
				reduced = true
				break
			}
		}
		if !reduced {
			break
		}
	}

	// Final phase: single-line elimination. Group testing can stall just
	// above the associativity when every surviving chunk holds a needed
	// line; dropping candidates one at a time finishes the reduction.
	for i := 0; i < len(set) && len(set) > 1 && res.AccessesUsed < budget; {
		trial := append(append([]uint64(nil), set[:i]...), set[i+1:]...)
		if conflicts(trial) {
			set = trial
		} else {
			i++
		}
	}
	// A usable eviction set must be small (order of the associativity —
	// we allow a generous 64) and must evict the victim reliably.
	// Against global-random-eviction designs the reduction stalls at
	// thousands of lines whose "evictions" are probabilistic, which does
	// not constitute a conflict set.
	const maxUsefulSet = 64
	res.SetSize = len(set)
	if len(set) <= maxUsefulSet && conflicts(set) && conflicts(set) {
		res.Found = true
	}
	res.SAEsObserved = c.StatsSnapshot().SAEs - startSAEs
	return res
}
