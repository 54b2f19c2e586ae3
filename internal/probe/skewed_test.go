package probe

import (
	"bytes"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// filledSkewed builds a small store and installs lines into it the way
// Mirage does, each filled tag owning a data slot; tags is the design-side
// view the store audits against.
func filledSkewed(t *testing.T) (*Skewed, []Tag) {
	t.Helper()
	const skews, sets, ways, seed = 2, 8, 4, 1
	s := NewSkewed(nil, "test", cachemodel.NewXorHasher(skews, 3, seed), skews, sets, ways, 40, seed)
	tags := make([]Tag, skews*sets*ways)
	for i := range tags {
		tags[i].FPTR = -1
	}
	r := rng.New(seed)
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
		tags[ti] = Tag{Line: line, FPTR: s.Attach(ti), SDID: uint8(line & 1), Valid: true}
	}
	if s.Resident() == 0 {
		t.Fatal("no line installed")
	}
	return &s, tags
}

// TestSkewedStateRoundTrip restores a saved store into a fresh one: the
// re-encoded bytes match, the rebuilt mirrors pass the audit, and every
// filled line is found again.
func TestSkewedStateRoundTrip(t *testing.T) {
	s, tags := filledSkewed(t)
	tag := func(ti int) Tag { return tags[ti] }
	var e snapshot.Encoder
	s.SaveState(&e)
	fresh := NewSkewed(nil, "test", cachemodel.NewXorHasher(2, 3, 1), 2, 8, 4, 40, 1)
	if err := fresh.RestoreState(snapshot.NewDecoder(e.Data()), tag); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Audit(tag); err != nil {
		t.Fatalf("restored store fails audit: %v", err)
	}
	var again snapshot.Encoder
	fresh.SaveState(&again)
	if !bytes.Equal(e.Data(), again.Data()) {
		t.Fatal("re-encoded state differs")
	}
	for ti, tg := range tags {
		if tg.Valid && fresh.Lookup(tg.Line, tg.SDID) != int32(ti) {
			t.Fatalf("restored store lost line %#x at tag %d", tg.Line, ti)
		}
	}
}

// TestSkewedAuditCatchesDamage checks that the store's audit flags each
// kind of drift a corrupt snapshot or a broken design could leave behind.
func TestSkewedAuditCatchesDamage(t *testing.T) {
	owner := func(s *Skewed) int32 { return s.data[s.dataUsed[0]].rptr }
	for _, c := range []struct {
		name   string
		damage func(s *Skewed, tags []Tag)
	}{
		{"validCnt drift", func(s *Skewed, _ []Tag) { s.validCnt[0]++ }},
		{"broken RPTR", func(s *Skewed, _ []Tag) { s.data[s.dataUsed[0]].rptr++ }},
		{"duplicated slot", func(s *Skewed, _ []Tag) { s.dataUsed = append(s.dataUsed, s.dataUsed[0]) }},
		{"stale mirror", func(s *Skewed, _ []Tag) { s.tagLine[owner(s)] ^= 1 }},
		{"tag dropped", func(s *Skewed, tags []Tag) { tags[owner(s)] = Tag{FPTR: -1} }},
	} {
		name, damage := c.name, c.damage
		s, tags := filledSkewed(t)
		tag := func(ti int) Tag { return tags[ti] }
		if err := s.Audit(tag); err != nil {
			t.Fatalf("%s: clean store fails audit: %v", name, err)
		}
		damage(s, tags)
		if s.Audit(tag) == nil {
			t.Errorf("%s: audit passed", name)
		}
	}
}
