package mirage

import (
	"strings"

	"mayacache/internal/cachemodel"
)

func init() {
	cachemodel.LinkFamily(cachemodel.FamilyMirage, func(r cachemodel.Row, sets int, seed uint64, h cachemodel.IndexHasher) (cachemodel.LLC, error) {
		return NewChecked(config(r, sets, seed, h))
	})
}

// config is row r's Mirage at setsPerSkew sets per skew: the one row to
// Config mapping, behind the family builder and DefaultConfig. The row's
// invalid ways are Mirage's extra ways, and what its name adds to
// "Mirage" (Mirage-Lite's "-Lite") suffixes the cache's name.
func config(r cachemodel.Row, setsPerSkew int, seed uint64, h cachemodel.IndexHasher) Config {
	return Config{
		SetsPerSkew: setsPerSkew,
		Skews:       r.Skews,
		BaseWays:    r.BaseWays,
		ExtraWays:   r.InvalidWays,
		Seed:        seed,
		Hasher:      h,
		NameSuffix:  strings.TrimPrefix(r.Name, "Mirage"),
	}
}
