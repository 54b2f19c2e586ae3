package trace

// Clone returns an independent generator whose future event stream is
// identical to g's. The samplers share their immutable tables; only the
// RNG words and walk positions are copied. Parallel simulation uses
// clones to reconstruct a workload's state at an earlier stream position
// without disturbing the live generator.
func (g *gen) Clone() Generator {
	c := *g
	c.r = g.r.Clone()
	if g.zipf != nil {
		c.zipf = g.zipf.CloneWith(c.r)
	}
	if g.geom != nil {
		c.geom = g.geom.CloneWith(c.r)
	}
	return &c
}
