package mirage

import (
	"encoding/binary"

	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful: the RNG, the hasher's key
// epoch, the stats, the tags, then the store's valid counts and data
// store. Each tag record takes its line and SDID from the store, which
// reads zeros for an invalid tag, and its valid byte from fptr >= 0. As
// in core, the dense lists are serialized verbatim: global random
// eviction draws indexes into them, so their order is part of the
// bit-exact state.
func (c *Mirage) SaveState(e *snapshot.Encoder) {
	e.RNG(c.r)
	c.st.Front.SaveState(e)
	c.stats.SaveState(e)
	e.Count(len(c.tags))
	for ti := range int32(len(c.tags)) {
		t := &c.tags[ti]
		r := e.Record(tagRecord)
		binary.LittleEndian.PutUint64(r, c.st.Line(ti))
		binary.LittleEndian.PutUint32(r[8:], uint32(t.fptr))
		r[12] = c.st.SDID(ti)
		r[13] = t.core
		r[14] = snapshot.BoolByte(t.fptr >= 0)
		r[15] = snapshot.BoolByte(t.dirty)
		r[16] = snapshot.BoolByte(t.reused)
	}
	c.st.SaveState(e)
}

// tagRecord is the wire size of one tag: line, FPTR, SDID, core, valid,
// dirty and reused.
const tagRecord = 17

// StateBound implements snapshot.Stateful, exact for the geometry: the
// RNG, the key epoch, the stats, a record per tag and the store.
func (c *Mirage) StateBound() int {
	return snapshot.RNGBytes + c.st.Front.StateBound() + c.stats.StateBound() +
		snapshot.CountBytes + tagRecord*len(c.tags) + c.st.StateBound()
}

// RestoreState implements snapshot.Stateful on a freshly constructed
// Mirage with identical configuration; every index is range-checked and
// the full Audit runs unconditionally afterwards.
func (c *Mirage) RestoreState(d *snapshot.Decoder) error {
	d.RNG(c.r)
	c.st.Front.RestoreState(d)
	if err := c.stats.RestoreState(d); err != nil {
		return err
	}
	nTags, nData := len(c.tags), c.st.DataEntries()
	if d.FixedCount(nTags, "mirage tags") {
		for ti := range int32(nTags) {
			t := &c.tags[ti]
			line := d.U64()
			t.fptr = d.I32()
			sdid := d.U8()
			t.core = d.U8()
			valid := d.Bool()
			t.dirty = d.Bool()
			t.reused = d.Bool()
			if d.Err() != nil {
				break
			}
			if t.fptr < -1 || int(t.fptr) >= nData {
				d.Fail("mirage tags", "tag %d has out-of-range fptr %d", ti, t.fptr)
				break
			}
			if valid != (t.fptr >= 0) {
				d.Fail("mirage tags", "tag %d has fptr %d but valid byte %v", ti, t.fptr, valid)
				break
			}
			if !c.st.RestoreTag(ti, line, sdid, valid) {
				d.Fail("mirage tags", "invalid tag %d has line %#x, SDID %d", ti, line, sdid)
				break
			}
		}
	}
	if err := c.st.RestoreState(d); err != nil {
		return err
	}
	if err := c.Audit(); err != nil {
		return &snapshot.CorruptError{At: "mirage state", Detail: err.Error()}
	}
	return nil
}

var _ snapshot.Stateful = (*Mirage)(nil)
