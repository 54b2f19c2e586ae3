package core

import "mayacache/internal/cachemodel"

func init() {
	cachemodel.LinkFamily(cachemodel.FamilyMaya, func(r cachemodel.Row, sets int, seed uint64, h cachemodel.IndexHasher) (cachemodel.LLC, error) {
		return NewChecked(config(r, sets, seed, h))
	})
}

// config is row r's Maya at setsPerSkew sets per skew: the one row to
// Config mapping, behind the family builder and DefaultConfig.
func config(r cachemodel.Row, setsPerSkew int, seed uint64, h cachemodel.IndexHasher) Config {
	return Config{
		SetsPerSkew: setsPerSkew,
		Skews:       r.Skews,
		BaseWays:    r.BaseWays,
		ReuseWays:   r.ReuseWays,
		InvalidWays: r.InvalidWays,
		Seed:        seed,
		Hasher:      h,
	}
}
