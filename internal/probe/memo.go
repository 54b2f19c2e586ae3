package probe

// Memo is a small direct-mapped, epoch-tagged memoization table over
// IndexHasher.Index — a software TLB for the cipher-indexed designs.
// Each slot caches the full per-skew index vector and the packed probe
// fingerprint for one line address. Entries are a pure function of
// (line, rekey epoch): the owning Front bumps the epoch on every
// hasher.Rekey(), which invalidates the whole table in O(1) without
// touching memory; a restore from snapshot calls Reset, which wipes the
// slots outright (the restored hasher epoch need not line up with the
// memo's local counter).
//
// Correctness contract: the memo may only front a hasher whose Index is
// a pure function of (skew, line, rekey epoch). Front owns the one memo
// of a design, builds it only for the PRINCE randomizer, and routes every
// Rekey of that hasher through Invalidate. Under the mayacheck build tag
// Front also cross-checks every memo hit against a direct
// hasher.Index/Fingerprint recomputation.
const (
	// memoBits sizes the table. 2^15 slots covers the pinned bench
	// working sets with high hit rates while staying well under the
	// simulated cache's own tag store footprint. The size is fixed
	// rather than derived from the cache geometry, which would starve
	// small caches probed by large footprints: the Fig 8 attack drives
	// a 1,536-line attacker footprint through a 64-set Maya.
	memoBits = 15

	// memoNoEpoch marks an empty slot. The live epoch counter starts
	// at zero and only increments, so it can never collide.
	memoNoEpoch = ^uint64(0)

	// memoHashMul is the 64-bit Fibonacci multiplier; the high bits of
	// line*memoHashMul spread clustered line addresses across slots.
	memoHashMul = 0x9E3779B97F4A7C15
)

// Memo is not safe for concurrent use; each Front owns at most one.
type Memo struct {
	lines  []uint64 // slot tag: cached line address
	epochs []uint64 // epoch the slot was filled in; memoNoEpoch = empty
	idx    []int32  // per-skew set indexes, stride = skews
	fps    []uint16 // packed probe fingerprint per slot
	skews  int
	shift  uint
	epoch  uint64
	hits   uint64
	misses uint64
}

// MemoBytes reports the arena bytes NewMemo carves for skews skews.
func MemoBytes(skews int) int {
	const n = 1 << memoBits
	return Size[uint64](n) + Size[uint64](n) + Size[int32](n*skews) + Size[uint16](n)
}

// NewMemo builds a table of 2^memoBits slots backed by the arena (a nil
// arena falls back to the heap via Alloc).
func NewMemo(a *Arena, skews int) *Memo {
	const n = 1 << memoBits
	m := &Memo{
		lines:  Alloc[uint64](a, n),
		epochs: Alloc[uint64](a, n),
		idx:    Alloc[int32](a, n*skews),
		fps:    Alloc[uint16](a, n),
		skews:  skews,
		shift:  64 - memoBits,
	}
	for i := range m.epochs {
		m.epochs[i] = memoNoEpoch
	}
	return m
}

func (m *Memo) slot(line uint64) int {
	return int((line * memoHashMul) >> m.shift)
}

// Lookup copies the cached per-skew indexes for line into dst and
// returns the cached fingerprint when the slot holds line at the
// current epoch. dst must have length >= skews.
func (m *Memo) Lookup(line uint64, dst []int32) (uint16, bool) {
	s := m.slot(line)
	if m.lines[s] == line && m.epochs[s] == m.epoch {
		base := s * m.skews
		copy(dst[:m.skews], m.idx[base:base+m.skews])
		m.hits++
		return m.fps[s], true
	}
	m.misses++
	return 0, false
}

// Insert caches the per-skew indexes and fingerprint for line at the
// current epoch, displacing whatever occupied the slot.
func (m *Memo) Insert(line uint64, src []int32, fp uint16) {
	s := m.slot(line)
	m.lines[s] = line
	m.epochs[s] = m.epoch
	base := s * m.skews
	copy(m.idx[base:base+m.skews], src[:m.skews])
	m.fps[s] = fp
}

// Invalidate drops every entry by bumping the epoch — O(1), no memory
// traffic. Front.Rekey calls it right after hasher.Rekey().
func (m *Memo) Invalidate() {
	m.epoch++
}

// Reset wipes the table and rewinds the epoch counter; used after a
// snapshot restore, where the restored hasher epoch has no relation to
// the memo's local counter.
func (m *Memo) Reset() {
	for i := range m.epochs {
		m.epochs[i] = memoNoEpoch
	}
	m.epoch = 0
}

// Counters reports lifetime hit/miss counts since the last
// ResetCounters.
func (m *Memo) Counters() (hits, misses uint64) {
	return m.hits, m.misses
}

// ResetCounters zeroes the hit/miss counters (table contents are
// untouched); Front calls it from the designs' ResetStats.
func (m *Memo) ResetCounters() {
	m.hits, m.misses = 0, 0
}
