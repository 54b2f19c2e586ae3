package baseline

import "mayacache/internal/cachemodel"

// The family builder mirrors the paper's baseline LLC: SRRIP, physically
// indexed (the hasher goes unused), with the row's ways over the scaled
// set count.
func init() {
	cachemodel.LinkFamily(cachemodel.FamilyBaseline, func(r cachemodel.Row, sets int, seed uint64, _ cachemodel.IndexHasher) (cachemodel.LLC, error) {
		return NewChecked(Config{Sets: sets, Ways: r.Ways(), Replacement: SRRIP, Seed: seed})
	})
}
