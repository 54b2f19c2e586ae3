package baseline

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"mayacache/internal/invariant"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// ReplacementKind selects the replacement policy of a set-associative cache.
type ReplacementKind uint8

const (
	// LRU is least-recently-used.
	LRU ReplacementKind = iota
	// SRRIP is static re-reference interval prediction with 2-bit RRPVs
	// (Jaleel et al., ISCA 2010) — the paper's baseline LLC policy.
	SRRIP
	// BRRIP is bimodal RRIP: mostly-distant insertion, occasionally long.
	BRRIP
	// DRRIP duels SRRIP vs BRRIP with dedicated leader sets and a PSEL
	// counter.
	DRRIP
	// RandomRepl evicts a uniformly random way.
	RandomRepl
)

// String implements fmt.Stringer.
func (k ReplacementKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case SRRIP:
		return "SRRIP"
	case BRRIP:
		return "BRRIP"
	case DRRIP:
		return "DRRIP"
	case RandomRepl:
		return "Random"
	default:
		return fmt.Sprintf("ReplacementKind(%d)", uint8(k))
	}
}

// policy tracks per-set replacement metadata. Victim selection only
// considers replacement order; validity is handled by the cache (invalid
// ways are always preferred over policy victims).
type policy interface {
	// hit updates state when (set, way) is re-referenced.
	hit(set, way int)
	// fill updates state when (set, way) receives a new line.
	fill(set, way int)
	// victim selects a way to evict in set.
	victim(set int) int
	// kind reports the policy's identity.
	kind() ReplacementKind
	// saveState/restoreState serialize the policy's mutable metadata.
	// The shared policy RNG is owned (and serialized) by SetAssoc.
	saveState(e *snapshot.Encoder)
	restoreState(d *snapshot.Decoder)
}

func newPolicy(k ReplacementKind, sets, ways int, r *rng.Rand) policy {
	switch k {
	case LRU:
		return newLRUPolicy(sets, ways)
	case SRRIP:
		return newRRIPPolicy(sets, ways, false, r)
	case BRRIP:
		return newRRIPPolicy(sets, ways, true, r)
	case DRRIP:
		return newDRRIPPolicy(sets, ways, r)
	case RandomRepl:
		return &randomPolicy{ways: ways, r: r}
	default:
		panic("baseline: unknown replacement kind")
	}
}

// lruPolicy keeps a per-way age stamp; the victim is the oldest way, the
// lowest-indexed one among equal stamps. The stamps are the snapshot's
// wire format. Each set also keeps its ways in a doubly-linked recency
// list ordered by (stamp, way), so the victim is the list's LRU end, one
// load, and a touch relinks one way in O(1). A touch stamps a way with a
// clock value above every stamp in the cache, so moving it to the MRU end
// keeps the order. Stamps tie only in a fresh cache, where they are all
// zero and the list is in way order, and after a restore, which rebuilds
// the list from them.
type lruPolicy struct {
	ways  int
	clock uint64
	stamp []uint64 // sets*ways

	// older[i] and newer[i] are the neighbours of global way i in its
	// set's list, as way indexes within the set; the LRU end's older
	// and the MRU end's newer are unused. lruEnd[s] and mruEnd[s] are
	// set s's oldest and newest ways. The links are int32, as wide as
	// SetAssoc's mru hint and validCnt, so they fit every set SetAssoc
	// can index.
	older, newer   []int32 //mayavet:ignore snapshotfields -- derived: rebuilt from the stamps on restore
	lruEnd, mruEnd []int32 //mayavet:ignore snapshotfields -- derived: rebuilt from the stamps on restore
}

func newLRUPolicy(sets, ways int) *lruPolicy {
	p := &lruPolicy{
		ways:   ways,
		stamp:  make([]uint64, sets*ways),
		older:  make([]int32, sets*ways),
		newer:  make([]int32, sets*ways),
		lruEnd: make([]int32, sets),
		mruEnd: make([]int32, sets),
	}
	// Every stamp starts at zero, so (stamp, way) order is way order in
	// every set: link the first set that way and copy it to the rest.
	for w := 1; w < ways; w++ {
		p.older[w] = int32(w - 1)
		p.newer[w-1] = int32(w)
	}
	for base := ways; base < len(p.stamp); base += ways {
		copy(p.older[base:base+ways], p.older[:ways])
		copy(p.newer[base:base+ways], p.newer[:ways])
	}
	for s := range p.mruEnd {
		p.mruEnd[s] = int32(ways - 1)
	}
	return p
}

func (p *lruPolicy) hit(set, way int) {
	p.clock++
	base := set * p.ways
	p.stamp[base+way] = p.clock
	mru := int(p.mruEnd[set])
	if way == mru {
		return
	}
	// Unlink way (it has a newer neighbour, not being the MRU end) and
	// append it after the MRU end.
	o, n := p.older[base+way], p.newer[base+way]
	if way == int(p.lruEnd[set]) {
		p.lruEnd[set] = n
	} else {
		p.newer[base+int(o)] = n
	}
	p.older[base+int(n)] = o
	p.newer[base+mru] = int32(way)
	p.older[base+way] = int32(mru)
	p.mruEnd[set] = int32(way)
}

func (p *lruPolicy) fill(set, way int) { p.hit(set, way) }

func (p *lruPolicy) victim(set int) int {
	w := int(p.lruEnd[set])
	if invariant.Enabled {
		invariant.Check(w == p.oldest(set), "baseline: lru list victim %d in set %d, stamp scan %d", w, set, p.oldest(set))
	}
	return w
}

// oldest scans set's stamps for the lowest, the first way among equals:
// the victim the list must name.
func (p *lruPolicy) oldest(set int) int {
	row := p.stamp[set*p.ways : (set+1)*p.ways]
	best := 0
	for w, s := range row {
		if s < row[best] {
			best = w
		}
	}
	return best
}

func (p *lruPolicy) kind() ReplacementKind { return LRU }

func (p *lruPolicy) saveState(e *snapshot.Encoder) {
	e.U64(p.clock)
	e.Count(len(p.stamp))
	for _, s := range p.stamp {
		binary.LittleEndian.PutUint64(e.Record(8), s)
	}
}

func (p *lruPolicy) restoreState(d *snapshot.Decoder) {
	p.clock = d.U64()
	if d.FixedCount(len(p.stamp), "lru stamps") {
		for i := range p.stamp {
			p.stamp[i] = d.U64()
			if p.stamp[i] > p.clock {
				d.Fail("lru stamps", "stamp %d ahead of clock %d", p.stamp[i], p.clock)
				break
			}
		}
	}
	p.rebuild()
	if invariant.Enabled {
		invariant.CheckErr(p.audit())
	}
}

// rebuild relinks every set's list from the stamps, ordered by (stamp,
// way), which names the victim the stamp scan would.
func (p *lruPolicy) rebuild() {
	order := make([]int32, p.ways)
	for set := range p.lruEnd {
		base := set * p.ways
		row := p.stamp[base : base+p.ways]
		for w := range order {
			order[w] = int32(w)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(row[a], row[b]) })
		p.lruEnd[set] = order[0]
		p.mruEnd[set] = order[len(order)-1]
		for i := 1; i < len(order); i++ {
			p.older[base+int(order[i])] = order[i-1]
			p.newer[base+int(order[i-1])] = order[i]
		}
	}
}

// audit checks that each set's list holds each of its ways once, linked
// both ways, in (stamp, way) order.
func (p *lruPolicy) audit() error {
	for set := range p.lruEnd {
		base := set * p.ways
		w := int(p.lruEnd[set])
		for i := 1; i < p.ways; i++ {
			n := int(p.newer[base+w])
			if n >= p.ways || int(p.older[base+n]) != w {
				return fmt.Errorf("baseline: lru list of set %d broken after way %d", set, w)
			}
			if s, t := p.stamp[base+w], p.stamp[base+n]; s > t || s == t && w > n {
				return fmt.Errorf("baseline: lru list of set %d puts way %d (stamp %d) before way %d (stamp %d)", set, w, s, n, t)
			}
			w = n
		}
		if w != int(p.mruEnd[set]) {
			return fmt.Errorf("baseline: lru list of set %d ends at way %d, MRU end is %d", set, w, p.mruEnd[set])
		}
	}
	return nil
}

// rripPolicy implements SRRIP (and BRRIP when bimodal) with 2-bit RRPVs.
type rripPolicy struct {
	ways    int
	bimodal bool
	rrpv    []uint8
	r       *rng.Rand
}

const (
	rrpvMax    = 3 // 2-bit counters
	rrpvLong   = 2 // SRRIP insertion value ("long re-reference")
	brripEvery = 32
)

func newRRIPPolicy(sets, ways int, bimodal bool, r *rng.Rand) *rripPolicy {
	p := &rripPolicy{ways: ways, bimodal: bimodal, rrpv: make([]uint8, sets*ways), r: r}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

func (p *rripPolicy) hit(set, way int) { p.rrpv[set*p.ways+way] = 0 }

func (p *rripPolicy) fill(set, way int) {
	v := uint8(rrpvLong)
	if p.bimodal {
		// BRRIP inserts at distant (max) most of the time.
		if p.r.Intn(brripEvery) != 0 {
			v = rrpvMax
		}
	}
	p.rrpv[set*p.ways+way] = v
}

func (p *rripPolicy) victim(set int) int {
	base := set * p.ways
	row := p.rrpv[base : base+p.ways]
	for {
		for w := range row {
			if row[w] == rrpvMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

func (p *rripPolicy) kind() ReplacementKind {
	if p.bimodal {
		return BRRIP
	}
	return SRRIP
}

func (p *rripPolicy) saveState(e *snapshot.Encoder) {
	e.Count(len(p.rrpv))
	copy(e.Record(len(p.rrpv)), p.rrpv)
}

func (p *rripPolicy) restoreState(d *snapshot.Decoder) {
	if !d.FixedCount(len(p.rrpv), "rrip rrpv") {
		return
	}
	for i := range p.rrpv {
		p.rrpv[i] = d.U8()
		if p.rrpv[i] > rrpvMax {
			d.Fail("rrip rrpv", "value %d exceeds %d", p.rrpv[i], rrpvMax)
			return
		}
	}
}

// drripPolicy duels SRRIP against BRRIP using leader sets and a saturating
// PSEL counter, as in the original DRRIP proposal.
type drripPolicy struct {
	sets    int
	srrip   *rripPolicy
	brrip   *rripPolicy
	psel    int
	pselMax int
	// leader[s]: 0 follower, 1 SRRIP leader, 2 BRRIP leader.
	leader []uint8
}

func newDRRIPPolicy(sets, ways int, r *rng.Rand) *drripPolicy {
	p := &drripPolicy{
		sets:    sets,
		srrip:   newRRIPPolicy(sets, ways, false, r),
		brrip:   newRRIPPolicy(sets, ways, true, r),
		pselMax: 1023,
		psel:    512,
		leader:  make([]uint8, sets),
	}
	// Every 32nd set leads SRRIP; every 32nd (offset 16) leads BRRIP.
	for s := 0; s < sets; s += 32 {
		p.leader[s] = 1
		if s+16 < sets {
			p.leader[s+16] = 2
		}
	}
	return p
}

func (p *drripPolicy) hit(set, way int) {
	p.srrip.hit(set, way)
	p.brrip.hit(set, way)
}

func (p *drripPolicy) usesBRRIP(set int) bool {
	switch p.leader[set] {
	case 1:
		return false
	case 2:
		return true
	default:
		return p.psel > p.pselMax/2
	}
}

func (p *drripPolicy) fill(set, way int) {
	// A fill means the previous access to this set missed; leaders train
	// PSEL (misses in SRRIP leaders push toward BRRIP and vice versa).
	switch p.leader[set] {
	case 1:
		if p.psel < p.pselMax {
			p.psel++
		}
	case 2:
		if p.psel > 0 {
			p.psel--
		}
	}
	if p.usesBRRIP(set) {
		p.brrip.fill(set, way)
		p.srrip.rrpv[set*p.srrip.ways+way] = p.brrip.rrpv[set*p.brrip.ways+way]
	} else {
		p.srrip.fill(set, way)
		p.brrip.rrpv[set*p.brrip.ways+way] = p.srrip.rrpv[set*p.srrip.ways+way]
	}
}

func (p *drripPolicy) victim(set int) int {
	if p.usesBRRIP(set) {
		return p.brrip.victim(set)
	}
	return p.srrip.victim(set)
}

func (p *drripPolicy) kind() ReplacementKind { return DRRIP }

// saveState serializes both duelling sub-policies and PSEL; the leader-set
// assignment is a pure function of the geometry and is not serialized.
func (p *drripPolicy) saveState(e *snapshot.Encoder) {
	p.srrip.saveState(e)
	p.brrip.saveState(e)
	e.Int(p.psel)
}

func (p *drripPolicy) restoreState(d *snapshot.Decoder) {
	p.srrip.restoreState(d)
	p.brrip.restoreState(d)
	p.psel = d.Int()
	if d.Err() == nil && (p.psel < 0 || p.psel > p.pselMax) {
		d.Fail("drrip psel", "value %d out of [0,%d]", p.psel, p.pselMax)
	}
}

// randomPolicy evicts a uniform random way.
type randomPolicy struct {
	ways int
	r    *rng.Rand
}

func (p *randomPolicy) hit(int, int)  {}
func (p *randomPolicy) fill(int, int) {}

func (p *randomPolicy) victim(int) int { return p.r.Intn(p.ways) }

func (p *randomPolicy) kind() ReplacementKind { return RandomRepl }

// randomPolicy's only state is the shared RNG, serialized by SetAssoc.
func (p *randomPolicy) saveState(*snapshot.Encoder)    {}
func (p *randomPolicy) restoreState(*snapshot.Decoder) {}
