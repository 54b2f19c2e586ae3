package baseline

import (
	"fmt"
	"slices"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// mapFA is FullyAssociative with a Go map from key to slot in place of
// the flat index: the same slots, dense used list and eviction draw. It
// is the oracle the flat index must match op for op.
type mapFA struct {
	capacity int
	index    map[faKey]int32
	slots    []faEntry
	used     []int32
	r        *rng.Rand
	stats    cachemodel.Stats
	wbBuf    []cachemodel.WritebackOut
	matchSD  bool
}

func newMapFA(capacity int, seed uint64, matchSDID bool) *mapFA {
	return &mapFA{
		capacity: capacity,
		index:    make(map[faKey]int32, capacity),
		slots:    make([]faEntry, capacity),
		used:     make([]int32, 0, capacity),
		r:        rng.New(seed ^ 0xfa),
		matchSD:  matchSDID,
	}
}

func (c *mapFA) key(line uint64, sdid uint8) faKey {
	if c.matchSD {
		return faKey{line: line, sdid: sdid}
	}
	return faKey{line: line}
}

func (c *mapFA) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	if a.Type == cachemodel.Read {
		s.Reads++
	} else {
		s.Writebacks++
	}
	k := c.key(a.Line, a.SDID)
	if slot, ok := c.index[k]; ok {
		e := &c.slots[slot]
		if a.Type == cachemodel.Read {
			if !e.reused {
				s.FirstDemandReuses++
				e.reused = true
			}
		} else {
			e.dirty = true
		}
		s.TagHits++
		s.DataHits++
		return cachemodel.Result{TagHit: true, DataHit: true}
	}

	s.Misses++
	if a.Type == cachemodel.Read {
		s.DemandMisses++
	} else {
		s.WritebackMisses++
	}
	var slot int32
	if len(c.used) < c.capacity {
		slot = int32(len(c.used))
		if c.slots[slot].valid {
			slot = -1
			for i := range c.slots {
				if !c.slots[i].valid {
					slot = int32(i)
					break
				}
			}
		}
	} else {
		pos := int32(c.r.Intn(len(c.used)))
		slot = c.used[pos]
		v := &c.slots[slot]
		if v.reused {
			s.ReusedDataEvictions++
		} else {
			s.DeadDataEvictions++
		}
		if v.core != a.Core {
			s.InterCoreEvictions++
		}
		if v.dirty {
			c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: v.key.line, SDID: v.key.sdid})
			s.WritebacksToMem++
		}
		delete(c.index, v.key)
		c.removeUsedAt(pos)
	}

	e := &c.slots[slot]
	*e = faEntry{key: k, core: a.Core, valid: true, dirty: a.Type == cachemodel.Writeback}
	e.usedPos = int32(len(c.used))
	c.used = append(c.used, slot)
	c.index[k] = slot
	s.Fills++
	s.DataFills++
	return cachemodel.Result{Writebacks: c.wbBuf}
}

func (c *mapFA) removeUsedAt(pos int32) {
	last := int32(len(c.used) - 1)
	moved := c.used[last]
	c.used[pos] = moved
	c.slots[moved].usedPos = pos
	c.used = c.used[:last]
}

func (c *mapFA) Flush(line uint64, sdid uint8) bool {
	k := c.key(line, sdid)
	slot, ok := c.index[k]
	if !ok {
		return false
	}
	e := &c.slots[slot]
	c.removeUsedAt(e.usedPos)
	delete(c.index, k)
	*e = faEntry{}
	c.stats.Flushes++
	return true
}

func (c *mapFA) Probe(line uint64, sdid uint8) (bool, bool) {
	_, ok := c.index[c.key(line, sdid)]
	return ok, ok
}

// faOp is one call of the differential stream.
type faOp struct {
	kind byte // 0 read, 1 writeback, 2 flush, 3 probe
	line uint64
	sdid uint8
	core uint8
}

func (op faOp) String() string {
	return fmt.Sprintf("%s(line %d, sdid %d, core %d)",
		[...]string{"read", "writeback", "flush", "probe"}[op.kind], op.line, op.sdid, op.core)
}

// faPair runs one op stream through the flat index and the map oracle.
type faPair struct {
	flat *FullyAssociative
	ref  *mapFA
}

func newFAPair(capacity int, seed uint64, matchSDID bool) faPair {
	return faPair{mustNewFA(capacity, seed, matchSDID), newMapFA(capacity, seed, matchSDID)}
}

// apply runs op on both caches and describes the first divergence in the
// op's outcome, the statistics or the occupancy.
func (p faPair) apply(op faOp) error {
	switch op.kind {
	case 0, 1:
		a := cachemodel.Access{Line: op.line, Type: cachemodel.Read, SDID: op.sdid, Core: op.core}
		if op.kind == 1 {
			a.Type = cachemodel.Writeback
		}
		got, want := p.flat.Access(a), p.ref.Access(a)
		if got.TagHit != want.TagHit || got.DataHit != want.DataHit || got.SAE != want.SAE ||
			!slices.Equal(got.Writebacks, want.Writebacks) {
			return fmt.Errorf("result %+v, map %+v", got, want)
		}
	case 2:
		if got, want := p.flat.Flush(op.line, op.sdid), p.ref.Flush(op.line, op.sdid); got != want {
			return fmt.Errorf("flushed %v, map %v", got, want)
		}
	default:
		gt, gd := p.flat.Probe(op.line, op.sdid)
		wt, wd := p.ref.Probe(op.line, op.sdid)
		if gt != wt || gd != wd {
			return fmt.Errorf("probe (%v, %v), map (%v, %v)", gt, gd, wt, wd)
		}
	}
	if got, want := p.flat.StatsSnapshot(), p.ref.stats; got != want {
		return fmt.Errorf("stats %+v, map %+v", got, want)
	}
	if got, want := p.flat.Occupancy(), len(p.ref.used); got != want {
		return fmt.Errorf("occupancy %d, map %d", got, want)
	}
	// A deletion that breaks a chain strands entries in the index; catch
	// them before they fill it and a lookup never meets an empty bucket.
	indexed := 0
	for _, s := range p.flat.index {
		if s != 0 {
			indexed++
		}
	}
	if indexed != p.flat.Occupancy() {
		return fmt.Errorf("index holds %d entries for %d resident lines", indexed, p.flat.Occupancy())
	}
	return nil
}

// faLines draws the line set of a differential stream: about twice as
// many lines as the cache holds, so lines are evicted and hit again. They
// are random rather than consecutive because Fibonacci hashing spreads
// consecutive lines evenly over the index, and collisions are what make
// probe chains long enough to wrap the table and backward shifts move
// entries.
func faLines(r *rng.Rand, capacity int) []uint64 {
	lines := make([]uint64, 2*capacity+1)
	for i := range lines {
		lines[i] = r.Uint64()
	}
	return lines
}

// TestFAIndexMatchesMap drives the flat index and the map oracle, built
// with the same seed, through random reads, writebacks, flushes and
// probes, under three seeds per configuration.
func TestFAIndexMatchesMap(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 16, 1024} {
		for _, matchSDID := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cap%d/sdid=%v/seed%d", capacity, matchSDID, seed), func(t *testing.T) {
					p := newFAPair(capacity, seed, matchSDID)
					r := rng.New(seed)
					lines := faLines(r, capacity)
					ops := max(4000, 40*capacity)
					for i := 0; i < ops; i++ {
						op := faOp{line: lines[r.Intn(len(lines))], sdid: uint8(r.Uint64n(3)), core: uint8(r.Uint64n(4))}
						// Mostly accesses, so the cache stays full and evicts.
						switch k := r.Uint64n(16); {
						case k < 9:
							op.kind = 0
						case k < 12:
							op.kind = 1
						case k < 14:
							op.kind = 2
						default:
							op.kind = 3
						}
						if err := p.apply(op); err != nil {
							t.Fatalf("op %d %v: %v", i, op, err)
						}
					}
				})
			}
		}
	}
}

// FuzzFAIndex decodes an op stream from the fuzzer's bytes: the first
// byte picks the capacity, SDID matching and line set, then every three
// bytes are one op (kind and SDID, line, core).
func FuzzFAIndex(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x10, 0x02, 0x01, 0x20, 0x03, 0x00})
	f.Add([]byte{0x13, 0x00, 0x05, 0x01, 0x01, 0x09, 0x02, 0x02, 0x05, 0x00, 0x03, 0x05, 0x01})
	f.Add([]byte{0x27, 0x04, 0x00, 0x00, 0x05, 0x11, 0x01, 0x06, 0x22, 0x00, 0x02, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacities := [...]int{1, 2, 3, 5, 16, 64}
		capacity := capacities[int(data[0]&0x0f)%len(capacities)]
		p := newFAPair(capacity, uint64(data[0]), data[0]&0x10 != 0)
		lines := faLines(rng.New(uint64(data[0])), capacity)
		for i := 1; i+2 < len(data); i += 3 {
			op := faOp{
				kind: data[i] & 3,
				sdid: data[i] >> 2 & 3,
				line: lines[int(data[i+1])%len(lines)],
				core: data[i+2] & 3,
			}
			if err := p.apply(op); err != nil {
				t.Fatalf("op %d %v: %v", i/3, op, err)
			}
		}
	})
}

// TestFAChurnZeroAlloc pins the steady state: with the cache full, every
// miss evicts and refills through the index without allocating.
func TestFAChurnZeroAlloc(t *testing.T) {
	const capacity = 1024
	c := mustNewFA(capacity, 1, true)
	var line uint64
	access := func() {
		typ := cachemodel.Read
		if line%5 == 0 {
			typ = cachemodel.Writeback
		}
		c.Access(cachemodel.Access{Line: line * 97 % (4 * capacity), Type: typ, SDID: uint8(line % 3)})
		line++
	}
	for i := 0; i < 4*capacity; i++ {
		access()
	}
	if c.Occupancy() != capacity {
		t.Fatalf("warm-up left occupancy %d, want %d", c.Occupancy(), capacity)
	}
	if n := testing.AllocsPerRun(10000, access); n != 0 {
		t.Fatalf("FullyAssociative.Access allocates %.2f per access under churn, want 0", n)
	}
}
