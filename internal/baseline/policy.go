package baseline

import (
	"encoding/binary"
	"fmt"

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

// lruPolicy keeps a per-way age stamp; the victim is the oldest.
type lruPolicy struct {
	ways  int
	clock uint64
	stamp []uint64 // sets*ways
}

func newLRUPolicy(sets, ways int) *lruPolicy {
	return &lruPolicy{ways: ways, stamp: make([]uint64, sets*ways)}
}

func (p *lruPolicy) hit(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *lruPolicy) fill(set, way int) { p.hit(set, way) }

func (p *lruPolicy) victim(set int) int {
	base := set * p.ways
	row := p.stamp[base : base+p.ways]
	best, bestStamp := 0, row[0]
	for w := 1; w < len(row); w++ {
		if s := row[w]; s < bestStamp {
			best, bestStamp = w, s
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
	if !d.FixedCount(len(p.stamp), "lru stamps") {
		return
	}
	for i := range p.stamp {
		p.stamp[i] = d.U64()
		if p.stamp[i] > p.clock {
			d.Fail("lru stamps", "stamp %d ahead of clock %d", p.stamp[i], p.clock)
			return
		}
	}
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
