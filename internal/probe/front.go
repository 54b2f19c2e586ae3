package probe

import (
	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/prince"
	"mayacache/internal/snapshot"
)

// Front is the one index path of the randomized designs (Maya, Mirage
// and the CEASER family): it resolves a line to its set index in every
// skew plus its probe fingerprint. It owns the index hasher, the per-skew
// index scratch the install path reads after a lookup, and the
// epoch-tagged index memo.
//
// The memo is on exactly when the hasher is the PRINCE randomizer, the
// default. A cipher evaluation per skew is worth a table lookup; a
// three-instruction hash such as cachemodel.XorHasher is not: with it the
// memo measured as a loss (DESIGN.md §14).
type Front struct {
	hasher cachemodel.IndexHasher
	// idx holds each skew's set index for the line most recently
	// resolved, so the install path that follows a missed lookup never
	// re-runs the hasher on the same line.
	idx  []int32 //mayavet:ignore snapshotfields -- per-access scratch; dead between accesses
	memo *Memo
}

// NewFront builds the index path for skews skews of sets sets (a power of
// two). A nil hasher selects the PRINCE randomizer keyed by seed. The
// memo, when there is one, is carved from ar (nil falls back to the heap).
func NewFront(ar *Arena, h cachemodel.IndexHasher, skews, sets int, seed uint64) Front {
	if h == nil {
		h = prince.NewRandomizer(skews, cachemodel.Log2(sets), seed)
	}
	f := Front{hasher: h, idx: make([]int32, skews)}
	if memoizes(h) {
		f.memo = NewMemo(ar, skews)
	}
	return f
}

// memoizes is the memo rule: only the PRINCE randomizer itself, not a
// type wrapping it, gets a memo.
func memoizes(h cachemodel.IndexHasher) bool {
	_, ok := h.(*prince.Randomizer)
	return ok
}

// frontBytes is the arena footprint of NewFront's memo for hasher h.
func frontBytes(h cachemodel.IndexHasher, skews int) int {
	if h == nil || memoizes(h) {
		return MemoBytes(skews)
	}
	return 0
}

// Resolve records line's set index in every skew (read back with Index)
// and returns its probe fingerprint. A memo hit replays the cached vector
// without touching the hasher; under mayacheck every hit is cross-checked
// against a direct computation.
func (f *Front) Resolve(line uint64) uint16 {
	if f.memo == nil {
		return f.compute(line)
	}
	if fp, ok := f.memo.Lookup(line, f.idx); ok {
		if invariant.Enabled {
			for skew := range f.idx {
				invariant.Check(int(f.idx[skew]) == f.hasher.Index(skew, line),
					"probe: memo index diverged at skew %d for line %#x", skew, line)
			}
			invariant.Check(fp == Fingerprint(line), "probe: memo fingerprint diverged for line %#x", line)
		}
		return fp
	}
	fp := f.compute(line)
	f.memo.Insert(line, f.idx, fp)
	return fp
}

func (f *Front) compute(line uint64) uint16 {
	for skew := range f.idx {
		f.idx[skew] = int32(f.hasher.Index(skew, line))
	}
	return Fingerprint(line)
}

// Index is skew's set index for the line most recently resolved.
func (f *Front) Index(skew int) int { return int(f.idx[skew]) }

// Rekey refreshes the hasher's keys and retires every memo entry with
// them.
func (f *Front) Rekey() {
	f.hasher.Rekey()
	if f.memo != nil {
		f.memo.Invalidate()
	}
}

// MemoCounters reports the memo's hit and miss counts (zero without a
// memo) for the owning design's StatsSnapshot.
func (f *Front) MemoCounters() (hits, misses uint64) {
	if f.memo == nil {
		return 0, 0
	}
	return f.memo.Counters()
}

// ResetMemoCounters zeroes the memo's counters; the table is untouched.
func (f *Front) ResetMemoCounters() {
	if f.memo != nil {
		f.memo.ResetCounters()
	}
}

// SaveState records the hasher's key epoch. The memo is never encoded: a
// snapshot is identical with and without one.
func (f *Front) SaveState(e *snapshot.Encoder) {
	snapshot.SaveHasherEpoch(e, f.hasher)
}

// RestoreState restores the key epoch and wipes the memo, whose entries
// belong to the keys the hasher held before. It refills lazily, which
// moves speed, never results.
func (f *Front) RestoreState(d *snapshot.Decoder) {
	snapshot.RestoreHasherEpoch(d, f.hasher)
	if f.memo != nil {
		f.memo.Reset()
	}
}
