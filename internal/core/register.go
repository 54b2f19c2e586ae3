package core

import "mayacache/internal/cachemodel"

// The registry factories carry the paper-geometry scaling: Maya keeps its
// default way mix scaled to the core count, Maya-ISO grows the data store
// back to the Mirage area envelope (8 base + 4 reuse ways per skew).
func init() {
	cachemodel.Register("Maya", func(o cachemodel.BuildOptions) (cachemodel.LLC, error) {
		sets, err := o.Sets()
		if err != nil {
			return nil, err
		}
		cfg := DefaultConfig(o.Seed)
		cfg.SetsPerSkew = sets
		if o.ReuseWays > 0 {
			cfg.ReuseWays = o.ReuseWays
			if o.ReuseWays >= 5 {
				// Fig 4: five or more reuse ways widen the tag lookup
				// by one cycle.
				cfg.ExtraLookupLatency = 1
			}
		}
		cfg.Hasher = o.Hasher(cfg.Skews, sets)
		return NewChecked(cfg)
	})
	cachemodel.Register("Maya-ISO", func(o cachemodel.BuildOptions) (cachemodel.LLC, error) {
		sets, err := o.Sets()
		if err != nil {
			return nil, err
		}
		cfg := DefaultConfig(o.Seed)
		cfg.SetsPerSkew = sets
		cfg.BaseWays = 8
		cfg.ReuseWays = 4
		cfg.Hasher = o.Hasher(cfg.Skews, sets)
		return NewChecked(cfg)
	})
}
