package attack

import (
	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// Reload+Refresh (Briongos et al., USENIX Security 2020) abuses
// *deterministic* replacement state: the attacker arranges a set so the
// victim's line is always the next eviction candidate, detects the
// victim's access by reloading, and then "refreshes" the replacement state
// so the victim never observes its own misses. The primitive requires
// predicting the victim of the next set fill. Section IV-C notes Maya
// mitigates the attack because replacement is globally random: no sequence
// of attacker accesses can make a specific line the deterministic next
// victim.
//
// Trials.ReplacementPredictabilityCtx measures the primitive directly: the
// attacker fully controls a cache, plants a victim line, performs a fixed
// "conditioning" access pattern, triggers one fill, and checks whether
// the victim line was the one evicted. Against an LRU set-associative
// cache the attacker succeeds (probability ~1); against global random
// eviction the hit rate is the inverse of the eviction pool size.

// predictabilityTrial runs one conditioning-and-fill experiment on a
// fresh cache built from seed, with a victim line drawn from the same
// seed, and reports whether the planted victim was the line evicted.
func predictabilityTrial(mk func(seed uint64) cachemodel.LLC, seed uint64) bool {
	c := mk(seed)
	vLine := uint64(0x700000) + rng.New(seed^0x4e10ad).Uint64n(1024)
	const (
		attacker = 1
		victim   = 2
	)
	// Plant the victim line and promote it (reuse-based designs).
	for i := 0; i < 2; i++ {
		c.Access(cachemodel.Access{Line: vLine, Type: cachemodel.Read, SDID: victim})
	}
	// Condition: the attacker fills everything else, touching its
	// own lines most recently so that in any recency-based policy
	// the victim becomes the eviction candidate.
	base := uint64(1) << 22
	geo := c.Geometry()
	fill := geo.DataEntries * 2
	for i := 0; i < fill; i++ {
		c.Access(cachemodel.Access{Line: base + uint64(i%geo.DataEntries), Type: cachemodel.Read, SDID: attacker})
	}
	// If the conditioning itself already evicted the victim (it
	// will, under any policy, given total pressure), re-plant and
	// re-touch the attacker lines once — the victim is now the
	// coldest line in a recency policy.
	for i := 0; i < 2; i++ {
		c.Access(cachemodel.Access{Line: vLine, Type: cachemodel.Read, SDID: victim})
	}
	for i := 0; i < geo.DataEntries; i++ {
		c.Access(cachemodel.Access{Line: base + uint64(i), Type: cachemodel.Read, SDID: attacker})
	}
	if _, resident := c.Probe(vLine, victim); !resident {
		// Already gone: deterministic recency policies evict the
		// cold victim during re-touch — counts as predictable.
		return true
	}
	// One more fill: did it take the victim?
	c.Access(cachemodel.Access{Line: base + uint64(geo.DataEntries) + 7, Type: cachemodel.Read, SDID: attacker})
	_, resident := c.Probe(vLine, victim)
	return !resident
}
