package probe

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// Skewed is the store Maya keeps from Mirage: a skewed-associative tag
// store with load-aware skew selection, decoupled from a data store by
// forward (FPTR) and reverse (RPTR) pointers. It is the one holder of each
// tag's line, SDID and validity. The owning design keeps the rest of each
// tag's state (its FPTR, Maya's priority state, the dirty and reuse bits)
// in an array indexed like the store's, and reports every change of a
// tag's validity or identity through Fill and Clear. The store keeps:
//
//   - tagLine, each tag's line, and tagMeta, its validity and SDID as
//     tagMetaOf(sdid); both are zero when the tag is invalid, and the
//     lookup verifies a candidate way against them in 10 bytes;
//   - tagFP packs one probe fingerprint per way (zero when invalid),
//     fpWords words per set, so the lookup compares a whole set's ways a
//     word of four at a time (see the package comment);
//   - validCnt counts each set's valid ways for load-aware skew selection,
//     and invMask has bit w set when way w is invalid, so the first free
//     way is a TrailingZeros (nil when ways > 64: FreeWay then scans);
//   - data and slots are the data store. slots is a permutation of the
//     data slots: slots[:used] is the dense list of used slots, which the
//     global random evictions draw from, and slots[used:] is the stack of
//     free slots, its top at the boundary. data holds each slot's RPTR
//     and its position in slots.
//
// tagFP and invMask are derived from tagLine and tagMeta, and rebuilt on
// restore. Everything else is snapshot state: tagLine and tagMeta travel
// inside the design's tag records, the rest in SaveState's section.
type Skewed struct {
	Front
	name    string // owning design, prefixed to snapshot error sites
	sets    int
	ways    int
	fpWords int

	validCnt []uint16
	invMask  []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tagMeta on restore
	tagLine  []uint64 //mayavet:ignore snapshotfields -- saved and restored in the design's tag records (Line, RestoreTag)
	tagMeta  []uint16 //mayavet:ignore snapshotfields -- saved and restored in the design's tag records (SDID, RestoreTag)
	tagFP    []uint64 //mayavet:ignore snapshotfields -- derived: rebuilt from tagLine and tagMeta on restore

	data  []dataEntry
	slots []int32
	used  int32 // number of used slots: the length of the used list
}

type dataEntry struct {
	// rptr is the owning tag's index. A free slot keeps 0 until its first
	// use and -1 once freed: the two free-slot wire forms SaveState writes.
	rptr int32
	pos  int32 // position in slots
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
		Size[int32](dataEntries) // slots
}

// NewSkewed builds an empty store of skews skews of sets sets (a power of
// two) of ways ways each, with dataEntries data slots, carving its arrays
// from ar hottest first: the memo, then the probe words, the tag arrays
// and the data store. The caller has checked that skews*sets*ways fits in
// an int32, which bounds every tag index, data slot and slot position.
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
	s.slots = Alloc[int32](ar, dataEntries)
	// Every slot starts free, slot 0 on top of the stack.
	for i := range int32(dataEntries) {
		s.slots[i] = i
		s.data[i].pos = i
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

// Line is tag ti's line, zero when the tag is invalid.
func (s *Skewed) Line(ti int32) uint64 { return s.tagLine[ti] }

// SDID is tag ti's security domain, zero when the tag is invalid.
func (s *Skewed) SDID(ti int32) uint8 { return uint8(s.tagMeta[ti] >> 8) }

// Valid reports whether tag ti holds a line.
func (s *Skewed) Valid(ti int32) bool { return s.tagMeta[ti] != 0 }

// Rekey empties the tag arrays and refreshes the front's keys: the end of
// a design's rekey-and-flush, after it has reset its own tag entries and
// freed their data slots.
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
func (s *Skewed) Full() bool { return int(s.used) == len(s.slots) }

// Resident is the number of data slots in use.
func (s *Skewed) Resident() int { return int(s.used) }

// DataEntries is the data store's capacity.
func (s *Skewed) DataEntries() int { return len(s.data) }

// Owner returns slot's RPTR: the tag that owns it. A free slot reads 0
// before its first use and -1 after.
func (s *Skewed) Owner(slot int32) int32 { return s.data[slot].rptr }

// Attach links the free slot on top of the stack to tag ti and returns
// it; the design stores it as ti's FPTR. The slot already sits at the
// boundary, so it joins the end of the used list where it is. The store
// must not be Full.
func (s *Skewed) Attach(ti int32) int32 {
	slot := s.slots[s.used]
	s.data[slot].rptr = ti
	s.used++
	return slot
}

// RandomSlot draws a uniformly random used data slot: the victim of a
// global random data eviction.
func (s *Skewed) RandomSlot(r *rng.Rand) int32 {
	return s.slots[r.Intn(int(s.used))]
}

// FreeData returns a used slot to the top of the free stack; the design
// resets the owning tag's FPTR itself. The last used slot fills the
// freed one's place in the used list, and the freed slot takes the last
// used position, which the shrinking boundary hands to the stack.
func (s *Skewed) FreeData(slot int32) {
	d := &s.data[slot]
	pos := d.pos
	if invariant.Enabled {
		invariant.Check(pos >= 0 && pos < s.used && s.slots[pos] == slot,
			"%s: freeing data slot %d, which is not in use", s.name, slot)
	}
	last := s.used - 1
	moved := s.slots[last]
	s.slots[pos] = moved
	s.data[moved].pos = pos
	s.slots[last] = slot
	d.pos = last
	d.rptr = -1
	s.used = last
}

// SaveState encodes the valid counts and the data store, which follow
// the design's tags in its wire format. Each slot is a record of its
// RPTR, its used-list position and a used byte; a free slot is
// (0, 0, 0) before its first use and (-1, 0, 0) after. The used list
// follows in its own order, then the free stack from bottom to top: the
// global random evictions index into the used list and Attach pops the
// stack, so any other order would change what a restored run picks.
func (s *Skewed) SaveState(e *snapshot.Encoder) {
	e.Count(len(s.validCnt))
	for _, v := range s.validCnt {
		binary.LittleEndian.PutUint16(e.Record(2), v)
	}
	e.Count(len(s.data))
	for i := range s.data {
		d := &s.data[i]
		r := e.Record(slotRecord)
		binary.LittleEndian.PutUint32(r, uint32(d.rptr))
		pos, used := uint32(0), d.pos < s.used
		if used {
			pos = uint32(d.pos)
		}
		binary.LittleEndian.PutUint32(r[4:], pos)
		r[8] = snapshot.BoolByte(used)
	}
	EncodeSlotList(e, s.slots[:s.used])
	free := s.slots[s.used:]
	e.Count(len(free))
	for i := len(free) - 1; i >= 0; i-- {
		binary.LittleEndian.PutUint32(e.Record(4), uint32(free[i]))
	}
}

// slotRecord is the wire size of one data slot: RPTR, used-list position
// and the used byte.
const slotRecord = 9

// StateBound is the size SaveState writes, exact for the geometry: the
// valid counts, a record per data slot, and the used list and free
// stack, which partition the slots between them.
func (s *Skewed) StateBound() int {
	return snapshot.CountBytes + 2*len(s.validCnt) + snapshot.CountBytes + slotRecord*len(s.data) +
		snapshot.CountBytes + SlotListBound(len(s.data))
}

// RestoreTag sets tag ti's line, SDID and validity as the design decodes
// its tag record, before RestoreState. It reports false when an invalid
// tag's record carries a line or an SDID: the store reads both back as
// zero, so that record could not be written again byte for byte.
func (s *Skewed) RestoreTag(ti int32, line uint64, sdid uint8, valid bool) bool {
	if !valid {
		s.tagLine[ti], s.tagMeta[ti] = 0, 0
		return line == 0 && sdid == 0
	}
	s.tagLine[ti], s.tagMeta[ti] = line, tagMetaOf(sdid)
	return true
}

// RestoreState decodes what SaveState wrote into a freshly built store of
// the same geometry, after the design has restored every tag through
// RestoreTag. Every index is range-checked before use, and a slot record
// SaveState could not have written (a free slot with a used-list
// position, a position that disagrees with the lists, lists that do not
// partition the slots) is refused. It then rebuilds the probe words and
// invalid-way masks from the tags; the design runs its full Audit
// afterwards.
func (s *Skewed) RestoreState(d *snapshot.Decoder) error {
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
			de.pos = d.I32()
			used := d.Bool()
			switch {
			case d.Err() != nil:
			case de.rptr < -1 || int(de.rptr) >= nTags:
				d.Fail(s.name+" data", "slot %d has out-of-range RPTR %d", i, de.rptr)
			case used && (de.pos < 0 || int(de.pos) >= nData):
				d.Fail(s.name+" data", "used slot %d has out-of-range position %d", i, de.pos)
			case !used && de.pos != 0:
				d.Fail(s.name+" data", "free slot %d has used-list position %d", i, de.pos)
			case !used:
				de.pos = -1 // placed by the free stack below
			}
			if d.Err() != nil {
				break
			}
		}
	}
	// Both lists decode into slots' backing array: the used list from the
	// front, the free stack (bottom first on the wire) right after it, in
	// the room the used list leaves.
	used := DecodeSlotList(d, s.slots[:0], nData, nData, s.name+" dataUsed")
	free := DecodeSlotList(d, s.slots[len(used):len(used)], nData-len(used), nData, s.name+" dataFree")
	if err := d.Err(); err != nil {
		return err
	}
	if len(used)+len(free) != nData {
		return &snapshot.CorruptError{At: s.name + " data",
			Detail: fmt.Sprintf("used %d + free %d slots != %d", len(used), len(free), nData)}
	}
	s.used = int32(len(used))
	slices.Reverse(s.slots[s.used:])
	// A used slot's record names its position; a free slot's is placed
	// here. A slot listed twice, or on both lists, fails one of the two.
	for p, slot := range s.slots {
		de := &s.data[slot]
		pos := int32(p) //mayavet:checked p < nData <= MaxInt32 (NewSkewed)
		switch {
		case pos < s.used && de.pos != pos:
			return &snapshot.CorruptError{At: s.name + " dataUsed", Detail: "position/back-pointer mismatch"}
		case pos >= s.used && de.pos != -1:
			return &snapshot.CorruptError{At: s.name + " dataFree", Detail: "slot used or duplicated"}
		}
		de.pos = pos
	}
	s.rebuild()
	return nil
}

// rebuild recomputes the probe words and invalid-way masks from tagLine
// and tagMeta; validCnt is decoded, not rebuilt, so Audit can check it.
func (s *Skewed) rebuild() {
	clear(s.tagFP)
	for skewSet := range s.validCnt {
		base, inv := skewSet*s.ways, uint64(0)
		for w, m := range s.tagMeta[base : base+s.ways] {
			if m != 0 {
				s.setFP(skewSet, w, Fingerprint(s.tagLine[base+w]))
			} else {
				inv |= 1 << uint(w)
			}
		}
		if s.invMask != nil {
			s.invMask[skewSet] = inv
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

// SlotListBound is the size EncodeSlotList writes for a list of at most
// n entries.
func SlotListBound(n int) int { return snapshot.CountBytes + 4*n }

// DecodeSlotList reads a dense index list of at most maxLen entries, each
// in [0, limit), and appends it to dst. A longer list is refused before
// any entry is read, so a restored list never outgrows the bound its
// owner's StateBound counts it at, nor dst's capacity when maxLen fits
// there.
func DecodeSlotList(d *snapshot.Decoder, dst []int32, maxLen, limit int, what string) []int32 {
	n := d.Count(limit)
	if n > maxLen {
		d.Fail(what, "%d entries exceed the cap %d", n, maxLen)
		return dst
	}
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

// Audit checks the store against itself and the design's FPTRs (fptr
// reports tag ti's, -1 for none): invalid tags hold no line, the probe
// words match the tags, every FPTR names a used slot whose RPTR names the
// tag back, every used slot has such an owner, the slot positions invert
// slots, and the valid counts and invalid-way masks load-aware skew
// selection reads match the tags. It is O(tags) and returns the first
// violation.
func (s *Skewed) Audit(fptr func(ti int) int32) error {
	owners := 0
	for ti, line := range s.tagLine {
		m, wantFP := s.tagMeta[ti], uint16(0)
		if m != 0 {
			wantFP = Fingerprint(line)
		} else if line != 0 {
			return fmt.Errorf("invalid tag %d holds line %#x", ti, line)
		}
		skewSet := ti / s.ways
		if got := Get(s.tagFP[skewSet*s.fpWords:], ti-skewSet*s.ways); got != wantFP {
			return fmt.Errorf("tagFP diverged at tag %d: %#x != %#x", ti, got, wantFP)
		}
		f := fptr(ti)
		if f == -1 {
			continue
		}
		owners++
		if m == 0 {
			return fmt.Errorf("invalid tag %d owns data slot %d", ti, f)
		}
		if f < 0 || int(f) >= len(s.data) {
			return fmt.Errorf("tag %d has bad fptr %d", ti, f)
		}
		if d := &s.data[f]; d.pos >= s.used || d.rptr != int32(ti) {
			return fmt.Errorf("tag %d: FPTR/RPTR mismatch", ti)
		}
	}
	if owners != int(s.used) {
		return fmt.Errorf("tags owning data %d != data in use %d", owners, s.used)
	}
	for p, slot := range s.slots {
		if slot < 0 || int(slot) >= len(s.data) || int(s.data[slot].pos) != p {
			return fmt.Errorf("slot list broken at position %d (slot %d)", p, slot)
		}
	}
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
