// Package probe is the lookup machinery of the randomized LLC designs:
// Front, the one index path of Maya, Mirage and the CEASER family (the
// hasher, PRINCE by default, and its epoch-tagged memo); Skewed, the
// skewed tag store and pointer-decoupled data store Maya and Mirage
// share; and beneath them the SWAR tag-probe kernels, the memo table and
// the flat arena allocator.
//
// # SWAR probes
//
// Each cache set keeps, alongside its authoritative tag arrays, a packed
// fingerprint mirror: one nonzero 16-bit fingerprint per way, four ways
// per uint64 word (way w lives in lane w%4 of word w/4). A lookup folds
// the probed line to the same fingerprint, broadcasts it across all four
// lanes, and XORs it against each packed word: matching lanes become
// zero, and the classic SWAR zero-lane detector flags them. Empty ways
// hold fingerprint 0, which Fingerprint never produces, so they can
// never match a probe.
//
// The detector may flag false positives in lanes ABOVE a true zero lane
// (the borrow from the per-lane decrement propagates upward), and
// distinct lines may share a fingerprint, so every candidate must be
// verified against the authoritative tag arrays. The LOWEST flagged lane
// is always a true zero, so walking candidates from the lowest lane
// upward and verifying each one preserves exact first-match semantics —
// the SWAR path visits matching ways in the same order a per-way scan
// would.
package probe

import "math/bits"

// LanesPerWord is the number of 16-bit fingerprint lanes per packed word.
const LanesPerWord = 4

const (
	laneLSBs = 0x0001_0001_0001_0001 // bit 0 of each 16-bit lane
	laneMSBs = 0x8000_8000_8000_8000 // bit 15 of each 16-bit lane
)

// WordsFor is the number of packed uint64 words needed for `ways` lanes.
func WordsFor(ways int) int {
	return (ways + LanesPerWord - 1) / LanesPerWord
}

// Fingerprint folds a line address to a nonzero 16-bit lane value.
// Zero is reserved to mark empty ways, so a 0 fold maps to 0xFFFF.
func Fingerprint(line uint64) uint16 {
	fp := uint16(line ^ line>>16 ^ line>>32 ^ line>>48)
	if fp == 0 {
		return 0xFFFF
	}
	return fp
}

// Broadcast replicates a 16-bit fingerprint into all four lanes.
func Broadcast(fp uint16) uint64 {
	return uint64(fp) * laneLSBs
}

// ZeroLanes returns a mask with bit 15 of every 16-bit lane of x that MAY
// be zero; lanes above the lowest flagged lane can be false positives,
// the lowest flagged lane is always a true zero. Iterate with NextLane.
func ZeroLanes(x uint64) uint64 {
	return (x - laneLSBs) &^ x & laneMSBs
}

// Candidates flags the lanes of `word` that may hold fingerprint `bfp`
// (a Broadcast value). Shorthand for ZeroLanes(word ^ bfp).
func Candidates(word, bfp uint64) uint64 {
	return ZeroLanes(word ^ bfp)
}

// NextLane pops the lowest flagged lane from a ZeroLanes mask, returning
// its lane index (0..3) and the mask with that flag cleared.
func NextLane(m uint64) (lane int, rest uint64) {
	return bits.TrailingZeros64(m) >> 4, m & (m - 1)
}

// Set writes fingerprint fp into lane `way%LanesPerWord` of the packed
// word slice entry `way/LanesPerWord`, preserving the other lanes. fp 0
// marks the way empty.
func Set(words []uint64, way int, fp uint16) {
	shift := uint(way&(LanesPerWord-1)) * 16
	w := &words[way>>2]
	*w = *w&^(0xFFFF<<shift) | uint64(fp)<<shift
}

// Get reads the fingerprint lane for `way` from the packed word slice.
func Get(words []uint64, way int) uint16 {
	return uint16(words[way>>2] >> (uint(way&(LanesPerWord-1)) * 16))
}
