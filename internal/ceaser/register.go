package ceaser

import "mayacache/internal/cachemodel"

// The registry exposes the prior-generation randomized designs at the
// same data capacity as the paper's baseline (16 ways over the scaled set
// count), so mayabench and mayasim can compare them head-to-head with
// Maya/Mirage/Baseline.
func init() {
	register := func(name string, v Variant) {
		cachemodel.Register(name, func(o cachemodel.BuildOptions) (cachemodel.LLC, error) {
			sets, err := o.Sets()
			if err != nil {
				return nil, err
			}
			cfg := Config{Sets: sets, Ways: 16, Variant: v, Seed: o.Seed}
			skews := 1
			switch v {
			case CEASERS:
				skews = 2
			case ScatterCache:
				skews = cfg.Ways
			}
			cfg.Hasher = o.Hasher(skews, sets)
			return NewChecked(cfg)
		})
	}
	register("CEASER", CEASER)
	register("CEASER-S", CEASERS)
	register("ScatterCache", ScatterCache)
}
