package experiments

import (
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/core"
)

func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// mustScaled unwraps a checked constructor: sweep geometries are derived
// from validated powers of two, so an error is a programming bug.
func mustScaled(c cachemodel.LLC, err error) cachemodel.LLC {
	if err != nil {
		panic(err)
	}
	return c
}

// newScaledBaseline builds a baseline LLC with an explicit set count (for
// the LLC-size sensitivity sweep, where capacity is varied directly).
func newScaledBaseline(sets int, seed uint64) cachemodel.LLC {
	return mustScaled(baseline.NewChecked(baseline.Config{
		Sets: sets, Ways: 16, Replacement: baseline.SRRIP, Seed: seed,
	}))
}

// newScaledMaya builds a default-way Maya cache with an explicit per-skew
// set count.
func newScaledMaya(setsPerSkew int, seed uint64) cachemodel.LLC {
	cfg := core.DefaultConfig(seed)
	cfg.SetsPerSkew = setsPerSkew
	cfg.Hasher = cachemodel.NewXorHasher(cfg.Skews, log2(setsPerSkew), seed)
	return mustScaled(core.NewChecked(cfg))
}
