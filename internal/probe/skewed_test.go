package probe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// filledSkewed builds a small store and installs lines into it the way
// Mirage does, each filled tag owning a data slot, then frees a few slots,
// so both free-slot forms (never used, freed) are present; fptrs is the
// design-side FPTR of each tag the store audits against.
func filledSkewed(t *testing.T) (*Skewed, []int32) {
	t.Helper()
	s := NewSkewed(nil, "test", cachemodel.NewXorHasher(2, 3, 1), 2, 8, 4, 48, 1)
	fptrs := make([]int32, 2*8*4)
	for i := range fptrs {
		fptrs[i] = -1
	}
	r := rng.New(1)
	for line := uint64(1); line <= 40; line++ {
		if s.Lookup(line, uint8(line&1)) >= 0 {
			t.Fatalf("line %#x hit before it was filled", line)
		}
		skew, set, ok := s.ChooseSkew(r)
		if !ok {
			continue
		}
		ti := s.FreeWay(skew, set)
		s.Fill(ti, line, uint8(line&1))
		fptrs[ti] = s.Attach(ti)
	}
	for i := 0; i < 3; i++ {
		ti := s.Owner(s.RandomSlot(r))
		s.FreeData(fptrs[ti])
		fptrs[ti] = -1
		s.Clear(ti)
	}
	if s.Resident() == 0 || s.Full() {
		t.Fatalf("%d of %d slots in use, want some used and some free", s.Resident(), s.DataEntries())
	}
	return &s, fptrs
}

// restored restores b, the saved state of s, into a fresh store of the
// same geometry, after setting every tag's line and SDID from s the way a
// design restores them.
func restored(s *Skewed, b []byte) (*Skewed, error) {
	fresh := NewSkewed(nil, "test", cachemodel.NewXorHasher(2, 3, 1), 2, 8, 4, 48, 1)
	for ti := range int32(len(s.tagLine)) {
		fresh.RestoreTag(ti, s.Line(ti), s.SDID(ti), s.Valid(ti))
	}
	return &fresh, fresh.RestoreState(snapshot.NewDecoder(b))
}

// TestSkewedStateRoundTrip restores a saved store into a fresh one: the
// re-encoded bytes match, the rebuilt probe words pass the audit, every
// filled line is found again, and attaching a slot after the restore
// pops the same one as before it.
func TestSkewedStateRoundTrip(t *testing.T) {
	s, fptrs := filledSkewed(t)
	fptr := func(ti int) int32 { return fptrs[ti] }
	var e snapshot.Encoder
	s.SaveState(&e)
	fresh, err := restored(s, e.Data())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Audit(fptr); err != nil {
		t.Fatalf("restored store fails audit: %v", err)
	}
	var again snapshot.Encoder
	fresh.SaveState(&again)
	if !bytes.Equal(e.Data(), again.Data()) {
		t.Fatal("re-encoded state differs")
	}
	for ti := range int32(len(fptrs)) {
		if s.Valid(ti) && fresh.Lookup(s.Line(ti), s.SDID(ti)) != ti {
			t.Fatalf("restored store lost line %#x at tag %d", s.Line(ti), ti)
		}
	}
	if got, want := fresh.Attach(0), s.Attach(0); got != want {
		t.Fatalf("restored store attaches slot %d, the original %d", got, want)
	}
}

// TestSkewedRestoreCapsFreeStack checks that a free stack longer than
// the slots the used list leaves, which StateBound does not count, is
// refused at its count, before an entry is read.
func TestSkewedRestoreCapsFreeStack(t *testing.T) {
	s, _ := filledSkewed(t)
	var e snapshot.Encoder
	s.SaveState(&e)
	b := e.Data()
	free := len(s.slots) - int(s.used)
	var long snapshot.Encoder
	EncodeSlotList(&long, make([]int32, free+1)) // the stack's wire form: count, then entries
	_, err := restored(s, append(slices.Clone(b[:len(b)-SlotListBound(free)]), long.Data()...))
	var corrupt *snapshot.CorruptError
	if !errors.As(err, &corrupt) || corrupt.At != "test dataFree" {
		t.Fatalf("restore returned %v, want a *snapshot.CorruptError at %q", err, "test dataFree")
	}
}

// TestSkewedFreeSlotForms pins the data store's wire records: a slot
// never used is (0, 0, 0), a freed one (-1, 0, 0), and a used one its
// owner, its used-list position and 1; the used list follows in order,
// then the free stack from bottom to top.
func TestSkewedFreeSlotForms(t *testing.T) {
	s := NewSkewed(nil, "test", cachemodel.NewXorHasher(2, 1, 1), 2, 2, 2, 4, 1)
	a, b, c := s.Attach(5), s.Attach(6), s.Attach(7) // slots 0, 1, 2
	s.FreeData(a)                                    // slot 2 moves to position 0
	var e snapshot.Encoder
	s.SaveState(&e)
	d := snapshot.NewDecoder(e.Data())
	if d.FixedCount(len(s.validCnt), "validCnt") {
		for range s.validCnt {
			d.U16()
		}
	}
	type rec struct{ rptr, pos, used int64 }
	var got []rec
	if d.FixedCount(4, "data") {
		for range 4 {
			got = append(got, rec{int64(d.I32()), int64(d.I32()), int64(d.U8())})
		}
	}
	used := DecodeSlotList(d, nil, 4, 4, "used")
	free := DecodeSlotList(d, nil, 4-len(used), 4, "free")
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{-1, 0, 0}, {6, 1, 1}, {7, 0, 1}, {0, 0, 0}}
	if !slices.Equal(got, want) || !slices.Equal(used, []int32{c, b}) || !slices.Equal(free, []int32{3, a}) {
		t.Fatalf("records %v, used %v, free %v; want %v, [2 1], [3 0]", got, used, free, want)
	}
}

// TestSkewedBytesPerSlot pins the data store at 12 bytes per slot: its
// RPTR, its position in slots, and its entry in slots.
func TestSkewedBytesPerSlot(t *testing.T) {
	h := cachemodel.NewXorHasher(2, 3, 1)
	if got := SkewedBytes(h, 2, 8, 4, 41) - SkewedBytes(h, 2, 8, 4, 40); got != 12 {
		t.Fatalf("a data slot takes %d bytes, want 12", got)
	}
}

// TestSkewedAuditCatchesDamage checks that the store's audit flags each
// kind of drift a broken design could leave behind, and that its restore
// refuses the slot records SaveState cannot have written.
func TestSkewedAuditCatchesDamage(t *testing.T) {
	owner := func(s *Skewed) int32 { return s.data[s.slots[0]].rptr }
	audit := func(s *Skewed, fptrs []int32) error {
		return s.Audit(func(ti int) int32 { return fptrs[ti] })
	}
	// rewire saves s, lets damage edit the data store's bytes (data holds
	// the record of each slot, at its index), and restores them.
	rewire := func(s *Skewed, damage func(s *Skewed, data []byte)) error {
		var e snapshot.Encoder
		s.SaveState(&e)
		b := e.Data()
		damage(s, b[4+2*len(s.validCnt)+4:])
		_, err := restored(s, b)
		var corrupt *snapshot.CorruptError
		if err != nil && !errors.As(err, &corrupt) {
			t.Errorf("restore failed with %T, want a *snapshot.CorruptError: %v", err, err)
		}
		return err
	}
	for _, c := range []struct {
		name  string
		check func(s *Skewed, fptrs []int32) error
	}{
		{"validCnt drift", func(s *Skewed, f []int32) error { s.validCnt[0]++; return audit(s, f) }},
		{"broken RPTR", func(s *Skewed, f []int32) error { s.data[s.slots[0]].rptr++; return audit(s, f) }},
		{"duplicated slot", func(s *Skewed, f []int32) error { s.slots[1] = s.slots[0]; return audit(s, f) }},
		{"stale fingerprint", func(s *Skewed, f []int32) error { s.tagFP[0] ^= 1 << 17; return audit(s, f) }},
		{"line in an invalid tag", func(s *Skewed, f []int32) error {
			s.tagLine[slices.Index(s.tagMeta, 0)] = 1
			return audit(s, f)
		}},
		{"tag dropped", func(s *Skewed, f []int32) error { f[owner(s)] = -1; return audit(s, f) }},
		{"free slot with a used position", func(s *Skewed, _ []int32) error {
			return rewire(s, func(s *Skewed, data []byte) {
				binary.LittleEndian.PutUint32(data[9*int(s.slots[s.used])+4:], 1)
			})
		}},
		{"used slot marked free", func(s *Skewed, _ []int32) error {
			return rewire(s, func(s *Skewed, data []byte) {
				rec := data[9*int(s.slots[s.used-1]):]
				binary.LittleEndian.PutUint32(rec[4:], 0)
				rec[8] = 0
			})
		}},
	} {
		s, fptrs := filledSkewed(t)
		if err := audit(s, fptrs); err != nil {
			t.Fatalf("%s: clean store fails audit: %v", c.name, err)
		}
		if c.check(s, fptrs) == nil {
			t.Errorf("%s: not caught", c.name)
		}
	}
}
