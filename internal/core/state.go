package core

import (
	"encoding/binary"

	"mayacache/internal/probe"
	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful: the RNG, the hasher's key
// epoch, the stats, the tags, the store's valid counts and data store,
// then p0List. Each tag record takes its line and SDID from the store,
// which reads zeros for an invalid tag. The dense lists (the store's used
// and free slots, p0List) are serialized verbatim, order included: the
// global random eviction policies index into them via r.Intn, so
// rebuilding them in any other order would change which victim a
// restored run picks and break bit-exact resume.
func (m *Maya) SaveState(e *snapshot.Encoder) {
	e.RNG(m.r)
	m.st.Front.SaveState(e)
	m.stats.SaveState(e)
	e.Count(len(m.tags))
	for ti := range int32(len(m.tags)) {
		t := &m.tags[ti]
		r := e.Record(21)
		binary.LittleEndian.PutUint64(r, m.st.Line(ti))
		binary.LittleEndian.PutUint32(r[8:], uint32(t.fptr))
		binary.LittleEndian.PutUint32(r[12:], uint32(t.p0pos))
		r[16] = m.st.SDID(ti)
		r[17] = t.core
		r[18] = t.state
		r[19] = snapshot.BoolByte(t.dirty)
		r[20] = snapshot.BoolByte(t.reused)
	}
	m.st.SaveState(e)
	probe.EncodeSlotList(e, m.p0List)
}

// RestoreState implements snapshot.Stateful on a freshly constructed Maya
// with identical configuration. Every index is range-checked during
// decode, and the full O(tags) Audit runs unconditionally afterwards, so
// a corrupt snapshot yields an error — never a panic later in the access
// path.
func (m *Maya) RestoreState(d *snapshot.Decoder) error {
	d.RNG(m.r)
	m.st.Front.RestoreState(d)
	if err := m.stats.RestoreState(d); err != nil {
		return err
	}
	nTags, nData := len(m.tags), m.st.DataEntries()
	if d.FixedCount(nTags, "maya tags") {
		for ti := range int32(nTags) {
			t := &m.tags[ti]
			line := d.U64()
			t.fptr = d.I32()
			t.p0pos = d.I32()
			sdid := d.U8()
			t.core = d.U8()
			t.state = d.U8()
			t.dirty = d.Bool()
			t.reused = d.Bool()
			if d.Err() != nil {
				break
			}
			if t.state > stP1 {
				d.Fail("maya tags", "tag %d has state %d", ti, t.state)
				break
			}
			if t.fptr < -1 || int(t.fptr) >= nData || t.p0pos < -1 || int(t.p0pos) >= nTags {
				d.Fail("maya tags", "tag %d has out-of-range pointers", ti)
				break
			}
			if !m.st.RestoreTag(ti, line, sdid, t.state != stInvalid) {
				d.Fail("maya tags", "invalid tag %d has line %#x, SDID %d", ti, line, sdid)
				break
			}
		}
	}
	if err := m.st.RestoreState(d); err != nil {
		return err
	}
	m.p0List = probe.DecodeSlotList(d, m.p0List[:0], nTags, "maya p0List")
	if err := d.Err(); err != nil {
		return err
	}
	// The structural invariants (FPTR/RPTR bijection, p0List bijection,
	// population caps, validCnt agreement) are exactly what Audit checks;
	// run it on every restore, mayacheck build or not.
	if err := m.Audit(); err != nil {
		return &snapshot.CorruptError{At: "maya state", Detail: err.Error()}
	}
	return nil
}

var _ snapshot.Stateful = (*Maya)(nil)
