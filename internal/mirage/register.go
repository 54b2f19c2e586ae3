package mirage

import "mayacache/internal/cachemodel"

func init() {
	register := func(name string, base func(uint64) Config) {
		cachemodel.Register(name, func(o cachemodel.BuildOptions) (cachemodel.LLC, error) {
			sets, err := o.Sets()
			if err != nil {
				return nil, err
			}
			cfg := base(o.Seed)
			cfg.SetsPerSkew = sets
			cfg.Hasher = o.Hasher(cfg.Skews, sets)
			return NewChecked(cfg)
		})
	}
	register("Mirage", DefaultConfig)
	register("Mirage-Lite", LiteConfig)
}
