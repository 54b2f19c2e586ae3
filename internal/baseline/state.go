package baseline

import (
	"encoding/binary"

	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful: entries, the policy metadata,
// and the single RNG the policy tree shares. The wire format is field-wise
// (line, sdid, core, valid, dirty, reused per way) regardless of the packed
// in-memory layout, so snapshots stay compatible across storage changes.
func (c *SetAssoc) SaveState(e *snapshot.Encoder) {
	e.RNG(c.polR)
	snapshot.SaveHasherEpoch(e, c.hasher)
	c.stats.SaveState(e)
	e.Count(len(c.meta))
	for i, mv := range c.meta {
		r := e.Record(wayRecord)
		binary.LittleEndian.PutUint64(r, c.lineArr[i])
		r[8] = metaSDID(mv)
		r[9] = metaCore(mv)
		r[10] = snapshot.BoolByte(mv&metaValid != 0)
		r[11] = snapshot.BoolByte(mv&metaDirty != 0)
		r[12] = snapshot.BoolByte(mv&metaReused != 0)
	}
	c.pol.saveState(e)
}

// wayRecord is the wire size of one way: line, SDID, core, valid, dirty
// and reused.
const wayRecord = 13

// StateBound implements snapshot.Stateful, exact for the geometry: the
// RNG, the hasher's epoch, the stats, a record per way and the policy's
// metadata.
func (c *SetAssoc) StateBound() int {
	return snapshot.RNGBytes + snapshot.EpochBytes + c.stats.StateBound() +
		snapshot.CountBytes + wayRecord*len(c.meta) + c.pol.stateBound()
}

// RestoreState implements snapshot.Stateful on a freshly constructed
// SetAssoc with identical configuration.
func (c *SetAssoc) RestoreState(d *snapshot.Decoder) error {
	d.RNG(c.polR)
	snapshot.RestoreHasherEpoch(d, c.hasher)
	if err := c.stats.RestoreState(d); err != nil {
		return err
	}
	if d.FixedCount(len(c.meta), "baseline entries") {
		for i := range c.meta {
			line := d.U64()
			sdid := d.U8()
			core := d.U8()
			valid := d.Bool()
			dirty := d.Bool()
			reused := d.Bool()
			if d.Err() != nil {
				break
			}
			c.lineArr[i] = line
			c.meta[i] = packMeta(sdid, core, valid, dirty, reused)
		}
	}
	c.pol.restoreState(d)
	if d.Err() == nil {
		// validCnt is derived from the valid bits; rebuild rather than
		// serialize it.
		for i := range c.validCnt {
			c.validCnt[i] = 0
		}
		for i := range c.meta {
			if c.meta[i]&metaValid != 0 {
				c.validCnt[i/c.ways]++
			}
		}
	}
	return d.Err()
}

var _ snapshot.Stateful = (*SetAssoc)(nil)
