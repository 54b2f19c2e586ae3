package ceaser

import (
	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful. The remap epoch travels with
// the hasher state, so a restored CEASER continues under the same keys it
// was killed with, mid remap period (fills mod RemapPeriod included).
func (c *Cache) SaveState(e *snapshot.Encoder) {
	e.RNG(c.r)
	c.front.SaveState(e)
	c.stats.SaveState(e)
	e.U64(c.clock)
	e.U64(c.fills)
	e.Count(len(c.entries))
	for i := range c.entries {
		en := &c.entries[i]
		e.U64(en.line)
		e.U8(en.sdid)
		e.U8(en.core)
		e.Bool(en.valid)
		e.Bool(en.dirty)
		e.Bool(en.reused)
		e.U64(en.stamp)
	}
}

// RestoreState implements snapshot.Stateful on a freshly constructed
// Cache with identical configuration.
func (c *Cache) RestoreState(d *snapshot.Decoder) error {
	d.RNG(c.r)
	c.front.RestoreState(d)
	if err := c.stats.RestoreState(d); err != nil {
		return err
	}
	c.clock = d.U64()
	c.fills = d.U64()
	if d.FixedCount(len(c.entries), "ceaser entries") {
		for i := range c.entries {
			en := &c.entries[i]
			en.line = d.U64()
			en.sdid = d.U8()
			en.core = d.U8()
			en.valid = d.Bool()
			en.dirty = d.Bool()
			en.reused = d.Bool()
			en.stamp = d.U64()
			if d.Err() != nil {
				break
			}
			if en.stamp > c.clock {
				d.Fail("ceaser entries", "stamp %d ahead of clock %d", en.stamp, c.clock)
				break
			}
		}
	}
	return d.Err()
}

var _ snapshot.Stateful = (*Cache)(nil)
