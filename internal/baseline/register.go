package baseline

import "mayacache/internal/cachemodel"

// The registry factory mirrors the paper's baseline LLC: 16-way SRRIP,
// physically indexed, sized to the same data capacity as the secure
// designs (Sets x 16 = Cores x SetsPerCore x 16 lines).
func init() {
	cachemodel.Register("Baseline", func(o cachemodel.BuildOptions) (cachemodel.LLC, error) {
		sets, err := o.Sets()
		if err != nil {
			return nil, err
		}
		return NewChecked(Config{
			Sets:        sets,
			Ways:        16,
			Replacement: SRRIP,
			Seed:        o.Seed,
		})
	})
}
