package probe

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// Skewed is the store Maya keeps from Mirage: a skewed-associative tag
// store with load-aware skew selection, decoupled from a data store by
// forward (FPTR) and reverse (RPTR) pointers. The owning design keeps its
// tag entries, whose states differ (Maya's priority bits, Mirage's valid
// bit), in an array indexed like the store's mirrors, and reports every
// change of a tag's validity or identity through Fill and Clear. The
// store keeps everything the lookup and install paths read beside them:
//
//   - tagLine mirrors each tag's line (zero when invalid) and tagMeta its
//     validity and SDID as tagMetaOf(sdid) (zero when invalid), so the
//     lookup verifies a candidate way in 10 bytes instead of a whole tag;
//   - tagFP packs one probe fingerprint per way (zero when invalid),
//     fpWords words per set, so the lookup compares a whole set's ways a
//     word of four at a time (see the package comment);
//   - validCnt counts each set's valid ways for load-aware skew selection,
//     and invMask has bit w set when way w is invalid, so the first free
//     way is a TrailingZeros (nil when ways > 64: FreeWay then scans);
//   - data, dataUsed and dataFree are the data store: each slot's RPTR
//     and its position in the dense list of used slots, which the global
//     random evictions draw from.
//
// The mirrors are derived state, rebuilt from the design's tags on
// restore; validCnt and the data store are part of the snapshot.
type Skewed struct {
	Front
	name    string // owning design, prefixed to snapshot error sites
	sets    int
	ways    int
	fpWords int

	validCnt []uint16
	invMask  []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from the design's tags on restore
	tagLine  []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from the design's tags on restore
	tagMeta  []uint16 //mayavet:ignore snapshotfields -- derived: rebuilt from the design's tags on restore
	tagFP    []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from the design's tags on restore

	data     []dataEntry
	dataUsed []int32
	dataFree []int32
}

type dataEntry struct {
	rptr    int32 // owning tag index, -1 when free
	usedPos int32 // position in dataUsed
	valid   bool
}

// Tag is what the store reads of a design's tag entry when it rebuilds
// and audits its mirrors.
type Tag struct {
	Line  uint64
	FPTR  int32 // data slot the tag owns, -1 for none
	SDID  uint8
	Valid bool
}

// SkewedBytes is the arena footprint of NewSkewed with the same geometry
// and hasher; a design adds its own arrays' sizes before NewArena.
func SkewedBytes(h cachemodel.IndexHasher, skews, sets, ways, dataEntries int) int {
	nSets := skews * sets
	nTags := nSets * ways
	return frontBytes(h, skews) +
		Size[uint64](nSets*WordsFor(ways)) + // tagFP
		Size[uint64](nTags) + // tagLine
		Size[uint16](nTags) + // tagMeta
		Size[uint16](nSets) + // validCnt
		Size[uint64](nSets) + // invMask
		Size[dataEntry](dataEntries) +
		Size[int32](2*dataEntries) // dataUsed, dataFree
}

// NewSkewed builds an empty store of skews skews of sets sets (a power of
// two) of ways ways each, with dataEntries data slots, carving its arrays
// from ar hottest first: the memo, then the probe words, the mirrors and
// the data store. The caller has checked that skews*sets*ways fits in an
// int32, which bounds every tag index, data slot and list position.
func NewSkewed(ar *Arena, name string, h cachemodel.IndexHasher, skews, sets, ways, dataEntries int, seed uint64) Skewed {
	nSets := skews * sets
	nTags := nSets * ways
	s := Skewed{
		Front:   NewFront(ar, h, skews, sets, seed),
		name:    name,
		sets:    sets,
		ways:    ways,
		fpWords: WordsFor(ways),
	}
	s.tagFP = Alloc[uint64](ar, nSets*s.fpWords)
	s.tagLine = Alloc[uint64](ar, nTags)
	s.tagMeta = Alloc[uint16](ar, nTags)
	s.validCnt = Alloc[uint16](ar, nSets)
	if ways <= 64 {
		s.invMask = Alloc[uint64](ar, nSets)
		for i := range s.invMask {
			s.invMask[i] = fullInvMask(ways)
		}
	}
	s.data = Alloc[dataEntry](ar, dataEntries)
	s.dataUsed = Alloc[int32](ar, dataEntries)[:0]
	s.dataFree = Alloc[int32](ar, dataEntries)[:0]
	for i := dataEntries - 1; i >= 0; i-- {
		s.dataFree = append(s.dataFree, int32(i))
	}
	return s
}

// tagMetaOf is the tagMeta value of a valid tag owned by sdid; bit 0 is
// the validity flag, so the zero value means invalid.
func tagMetaOf(sdid uint8) uint16 {
	return uint16(sdid)<<8 | 1
}

// fullInvMask is the invMask value of a set whose ways are all invalid.
// ways == 64 shifts out to 0, and 0-1 wraps to all-ones — still correct.
func fullInvMask(ways int) uint64 {
	return uint64(1)<<uint(ways) - 1
}

// Base is the tag index of way 0 of (skew, set); tag indexes run over
// skews, then sets, then ways.
func (s *Skewed) Base(skew, set int) int32 {
	return int32((skew*s.sets + set) * s.ways)
}

// split turns a tag index into its flattened (skew, set) and its way.
func (s *Skewed) split(ti int32) (skewSet, way int) {
	skewSet = int(ti) / s.ways
	return skewSet, int(ti) - skewSet*s.ways
}

// Lookup resolves line through the front and returns the index of the
// tag holding (line, sdid), or -1. The front keeps every skew's set index
// for the install path that follows a miss, so a miss never hashes twice.
//
// Each set's fingerprint words are compared a word at a time; every
// flagged lane is verified against tagLine/tagMeta, lowest lane first,
// so the first verified hit is exactly the way a per-way scan returns.
func (s *Skewed) Lookup(line uint64, sdid uint8) int32 {
	bfp := Broadcast(s.Resolve(line))
	want := tagMetaOf(sdid)
	for skew, set := range s.idx {
		skewSet := skew*s.sets + int(set)
		base := int32(skewSet * s.ways)
		fpBase := skewSet * s.fpWords
		words := s.tagFP[fpBase : fpBase+s.fpWords]
		for wi := range words {
			cand := Candidates(words[wi], bfp)
			for cand != 0 {
				var lane int
				lane, cand = NextLane(cand)
				w := wi*LanesPerWord + lane
				if w >= s.ways {
					// Padding lanes past the last way hold fingerprint 0
					// and can only flag as false positives; higher lanes
					// in this word are padding too.
					break
				}
				if ti := base + int32(w); s.tagLine[ti] == line && s.tagMeta[ti] == want {
					return ti
				}
			}
		}
	}
	return -1
}

// ChooseSkew is load-aware skew selection: of the sets the last Lookup
// resolved, it picks the one with the fewest valid tags, breaking ties
// uniformly with r. ok reports whether that set has an invalid way. It
// must run right after the Lookup that missed, before any rekey.
func (s *Skewed) ChooseSkew(r *rng.Rand) (skew, set int, ok bool) {
	bestSkew, bestSet, bestValid := -1, -1, 0
	tie := 0
	for sk, st := range s.idx {
		v := int(s.validCnt[sk*s.sets+int(st)])
		switch {
		case bestSkew < 0 || v < bestValid:
			bestSkew, bestSet, bestValid = sk, int(st), v
			tie = 1
		case v == bestValid:
			tie++
			// Reservoir-style tie break keeps the choice uniform.
			if r.Intn(tie) == 0 {
				bestSkew, bestSet = sk, int(st)
			}
		}
	}
	return bestSkew, bestSet, bestValid < s.ways
}

// FreeWay returns the first invalid way of (skew, set); the caller must
// have verified one exists.
func (s *Skewed) FreeWay(skew, set int) int32 {
	base := s.Base(skew, set)
	if s.invMask != nil {
		if mask := s.invMask[skew*s.sets+set]; mask != 0 {
			// The lowest set bit is the first invalid way in scan order.
			return base + int32(bits.TrailingZeros64(mask))
		}
	} else {
		for w, m := range s.tagMeta[base : int(base)+s.ways] {
			if m == 0 {
				return base + int32(w)
			}
		}
	}
	invariant.Check(false, "%s: FreeWay called on a full set (skew %d, set %d)", s.name, skew, set)
	return -1
}

// Fill records that the design installed (line, sdid) in invalid tag ti.
func (s *Skewed) Fill(ti int32, line uint64, sdid uint8) {
	skewSet, way := s.split(ti)
	s.tagLine[ti] = line
	s.tagMeta[ti] = tagMetaOf(sdid)
	s.setFP(skewSet, way, Fingerprint(line))
	s.validCnt[skewSet]++
	s.markValid(skewSet, way)
}

// Clear records that the design invalidated tag ti.
func (s *Skewed) Clear(ti int32) {
	skewSet, way := s.split(ti)
	s.tagLine[ti] = 0
	s.tagMeta[ti] = 0
	s.setFP(skewSet, way, 0)
	s.validCnt[skewSet]--
	if s.invMask != nil {
		s.invMask[skewSet] |= 1 << uint(way)
	}
}

// setFP writes a way's packed probe fingerprint (0 marks it invalid).
func (s *Skewed) setFP(skewSet, way int, fp uint16) {
	Set(s.tagFP[skewSet*s.fpWords:], way, fp)
}

// markValid clears a way's bit in its set's invalid-way mask.
func (s *Skewed) markValid(skewSet, way int) {
	if s.invMask != nil {
		s.invMask[skewSet] &^= 1 << uint(way)
	}
}

// Rekey empties the tag mirrors and refreshes the front's keys: the end
// of a design's rekey-and-flush, after it has invalidated its own tags
// and freed their data slots.
func (s *Skewed) Rekey() {
	clear(s.tagLine)
	clear(s.tagMeta)
	clear(s.tagFP)
	clear(s.validCnt)
	for i := range s.invMask {
		s.invMask[i] = fullInvMask(s.ways)
	}
	s.Front.Rekey()
}

// Full reports whether every data slot is in use.
func (s *Skewed) Full() bool { return len(s.dataFree) == 0 }

// Resident is the number of data slots in use.
func (s *Skewed) Resident() int { return len(s.dataUsed) }

// DataEntries is the data store's capacity.
func (s *Skewed) DataEntries() int { return len(s.data) }

// Owner returns slot's RPTR: the tag that owns it, -1 when it is free.
func (s *Skewed) Owner(slot int32) int32 { return s.data[slot].rptr }

// Attach links a free data slot to tag ti and returns it; the design
// stores it as ti's FPTR. The store must not be Full.
func (s *Skewed) Attach(ti int32) int32 {
	slot := s.dataFree[len(s.dataFree)-1]
	s.dataFree = s.dataFree[:len(s.dataFree)-1]
	d := &s.data[slot]
	d.valid = true
	d.rptr = ti
	d.usedPos = int32(len(s.dataUsed)) //mayavet:checked len(dataUsed) < len(data) <= MaxInt32 (NewSkewed)
	s.dataUsed = append(s.dataUsed, slot)
	if invariant.Enabled {
		invariant.Check(len(s.dataUsed)+len(s.dataFree) == len(s.data),
			"%s: data slots leak after attach: used %d + free %d != %d",
			s.name, len(s.dataUsed), len(s.dataFree), len(s.data))
	}
	return slot
}

// RandomSlot draws a uniformly random used data slot: the victim of a
// global random data eviction.
func (s *Skewed) RandomSlot(r *rng.Rand) int32 {
	return s.dataUsed[r.Intn(len(s.dataUsed))]
}

// FreeData returns a used slot to the free list; the design resets the
// owning tag's FPTR itself.
func (s *Skewed) FreeData(slot int32) {
	pos := s.data[slot].usedPos
	if invariant.Enabled {
		invariant.Check(s.data[slot].valid, "%s: freeing invalid data slot %d", s.name, slot)
		invariant.Check(pos >= 0 && int(pos) < len(s.dataUsed) && s.dataUsed[pos] == slot,
			"%s: dataUsed position %d does not hold slot %d", s.name, pos, slot)
	}
	last := int32(len(s.dataUsed) - 1)
	moved := s.dataUsed[last]
	s.dataUsed[pos] = moved
	s.data[moved].usedPos = pos
	s.dataUsed = s.dataUsed[:last]
	s.data[slot] = dataEntry{rptr: -1}
	s.dataFree = append(s.dataFree, slot)
}

// SaveState encodes the valid counts and the data store, which follow
// the design's tags in its wire format. The dense lists keep their order:
// the global random evictions index into them, so any other order would
// change which victim a restored run picks.
func (s *Skewed) SaveState(e *snapshot.Encoder) {
	e.Count(len(s.validCnt))
	for _, v := range s.validCnt {
		binary.LittleEndian.PutUint16(e.Record(2), v)
	}
	e.Count(len(s.data))
	for i := range s.data {
		d := &s.data[i]
		r := e.Record(9)
		binary.LittleEndian.PutUint32(r, uint32(d.rptr))
		binary.LittleEndian.PutUint32(r[4:], uint32(d.usedPos))
		r[8] = snapshot.BoolByte(d.valid)
	}
	EncodeSlotList(e, s.dataUsed)
	EncodeSlotList(e, s.dataFree)
}

// RestoreState decodes what SaveState wrote into a freshly built store of
// the same geometry, after the design has decoded its tags (tag reports
// tag ti). Every index is range-checked before use. It then rebuilds the
// mirrors from the tags and checks that the used and free lists partition
// the data store with matching back-pointers; the design runs its full
// Audit afterwards.
func (s *Skewed) RestoreState(d *snapshot.Decoder, tag func(ti int) Tag) error {
	nTags, nData := len(s.tagLine), len(s.data)
	if d.FixedCount(len(s.validCnt), s.name+" validCnt") {
		for i := range s.validCnt {
			s.validCnt[i] = d.U16()
		}
	}
	if d.FixedCount(nData, s.name+" data") {
		for i := range s.data {
			de := &s.data[i]
			de.rptr = d.I32()
			de.usedPos = d.I32()
			de.valid = d.Bool()
			if d.Err() != nil {
				break
			}
			if de.rptr < -1 || int(de.rptr) >= nTags || de.usedPos < -1 || int(de.usedPos) >= nData {
				d.Fail(s.name+" data", "slot %d has out-of-range pointers", i)
				break
			}
		}
	}
	s.dataUsed = DecodeSlotList(d, s.dataUsed[:0], nData, s.name+" dataUsed")
	s.dataFree = DecodeSlotList(d, s.dataFree[:0], nData, s.name+" dataFree")
	if err := d.Err(); err != nil {
		return err
	}
	s.rebuild(tag)
	seen := make([]bool, nData)
	for pos, slot := range s.dataUsed {
		de := &s.data[slot]
		if !de.valid || de.usedPos != int32(pos) { //mayavet:checked pos < nData <= MaxInt32 (NewSkewed)
			return &snapshot.CorruptError{At: s.name + " dataUsed", Detail: "position/back-pointer mismatch"}
		}
		seen[slot] = true
	}
	for _, slot := range s.dataFree {
		if s.data[slot].valid || seen[slot] {
			return &snapshot.CorruptError{At: s.name + " dataFree", Detail: "slot valid or duplicated"}
		}
		seen[slot] = true
	}
	return nil
}

// rebuild recomputes the mirrors and invalid-way masks from the design's
// tags; validCnt is decoded, not rebuilt, so Audit can check it.
func (s *Skewed) rebuild(tag func(ti int) Tag) {
	clear(s.tagFP)
	clear(s.invMask)
	for i := range s.tagLine {
		t := tag(i)
		skewSet, way := s.split(int32(i)) //mayavet:checked i < nTags <= MaxInt32 (NewSkewed)
		s.tagLine[i] = t.Line
		s.tagMeta[i] = 0
		if t.Valid {
			s.tagMeta[i] = tagMetaOf(t.SDID)
			s.setFP(skewSet, way, Fingerprint(t.Line))
		} else if s.invMask != nil {
			s.invMask[skewSet] |= 1 << uint(way)
		}
	}
}

// EncodeSlotList writes a dense index list, order included, as its count
// and one little-endian int32 per entry: the wire form DecodeSlotList
// reads.
func EncodeSlotList(e *snapshot.Encoder, list []int32) {
	e.Count(len(list))
	for _, v := range list {
		binary.LittleEndian.PutUint32(e.Record(4), uint32(v))
	}
}

// DecodeSlotList reads a dense index list whose entries must lie in
// [0, limit). The count is bounded by limit before any element is read.
func DecodeSlotList(d *snapshot.Decoder, dst []int32, limit int, what string) []int32 {
	n := d.Count(limit)
	for i := 0; i < n; i++ {
		v := d.I32()
		if d.Err() != nil {
			break
		}
		if v < 0 || int(v) >= limit {
			d.Fail(what, "index %d out of range [0,%d)", v, limit)
			break
		}
		dst = append(dst, v)
	}
	return dst
}

// Audit checks the store against the design's tags (tag reports tag ti):
// the mirrors, the FPTR/RPTR bijection, data slot conservation, and the
// valid counts and invalid-way masks load-aware skew selection reads. It
// is O(tags) and returns the first violation.
func (s *Skewed) Audit(tag func(ti int) Tag) error {
	owners := 0
	for ti := range s.tagLine {
		t := tag(ti)
		if s.tagLine[ti] != t.Line {
			return fmt.Errorf("tagLine mirror diverged at tag %d: %#x != %#x", ti, s.tagLine[ti], t.Line)
		}
		wantMeta, wantFP := uint16(0), uint16(0)
		if t.Valid {
			wantMeta, wantFP = tagMetaOf(t.SDID), Fingerprint(t.Line)
		}
		if s.tagMeta[ti] != wantMeta {
			return fmt.Errorf("tagMeta mirror diverged at tag %d: %#x != %#x", ti, s.tagMeta[ti], wantMeta)
		}
		skewSet := ti / s.ways
		if got := Get(s.tagFP[skewSet*s.fpWords:], ti-skewSet*s.ways); got != wantFP {
			return fmt.Errorf("tagFP mirror diverged at tag %d: %#x != %#x", ti, got, wantFP)
		}
		if t.FPTR == -1 {
			continue
		}
		owners++
		if t.FPTR < 0 || int(t.FPTR) >= len(s.data) {
			return fmt.Errorf("tag %d has bad fptr %d", ti, t.FPTR)
		}
		if d := &s.data[t.FPTR]; !d.valid || d.rptr != int32(ti) {
			return fmt.Errorf("tag %d: FPTR/RPTR mismatch", ti)
		}
	}
	if owners != len(s.dataUsed) {
		return fmt.Errorf("tags owning data %d != data in use %d", owners, len(s.dataUsed))
	}
	if len(s.dataUsed)+len(s.dataFree) != len(s.data) {
		return fmt.Errorf("data slots leak: used %d + free %d != %d",
			len(s.dataUsed), len(s.dataFree), len(s.data))
	}
	// The mirrors agree with the tags by now, so tagMeta stands in for
	// their validity.
	for skewSet := range s.validCnt {
		n, inv := uint16(0), uint64(0)
		for w, m := range s.tagMeta[skewSet*s.ways : (skewSet+1)*s.ways] {
			if m != 0 {
				n++
			} else if s.ways <= 64 {
				inv |= 1 << uint(w)
			}
		}
		skew, set := skewSet/s.sets, skewSet%s.sets
		if n != s.validCnt[skewSet] {
			return fmt.Errorf("validCnt[%d,%d] = %d, actual %d", skew, set, s.validCnt[skewSet], n)
		}
		if s.invMask != nil && s.invMask[skewSet] != inv {
			return fmt.Errorf("invMask[%d,%d] = %#x, actual %#x", skew, set, s.invMask[skewSet], inv)
		}
	}
	return nil
}
