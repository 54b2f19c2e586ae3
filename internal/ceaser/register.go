package ceaser

import "mayacache/internal/cachemodel"

// The family builder takes the variant from the row's shape: one skew is
// CEASER, one way per skew Scatter-Cache, two skews CEASER-S.
func init() {
	cachemodel.LinkFamily(cachemodel.FamilyCEASER, func(r cachemodel.Row, sets int, seed uint64, h cachemodel.IndexHasher) (cachemodel.LLC, error) {
		var v Variant
		switch {
		case r.Skews == 1:
			v = CEASER
		case r.BaseWays == 1:
			v = ScatterCache
		case r.Skews == 2:
			v = CEASERS
		default:
			return nil, cachemodel.BadConfigf("ceaser: no variant has %d skews of %d ways", r.Skews, r.BaseWays)
		}
		return NewChecked(Config{Sets: sets, Ways: r.Skews * r.BaseWays, Variant: v, Seed: seed, Hasher: h})
	})
}
