package baseline

import (
	"fmt"
	"math"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// FullyAssociative is a true fully-associative cache with random
// replacement — the security gold standard against conflict-based attacks
// that the randomized designs approximate. A real implementation would
// need an impractical CAM, which is the paper's motivation for
// Mirage/Maya; the model finds a line through a flat open-addressed index
// instead: a power-of-two table of slot+1 (0 = empty) at least four times
// the capacity, addressed by a multiplicative hash of line and SDID,
// probed linearly, and kept free of gaps on removal by backward-shift
// deletion. Eviction draws a uniformly random resident from the dense used
// list, so the index never influences a hit, a victim or a statistic.
type FullyAssociative struct {
	capacity int
	index    []int32 // bucket -> slot+1, 0 = empty; len is a power of two
	shift    uint    // 64 - log2(len(index)): the hash keeps the top bits
	slots    []faEntry
	used     []int32 // dense list of occupied slots for O(1) random eviction
	r        *rng.Rand
	stats    cachemodel.Stats
	wbBuf    []cachemodel.WritebackOut
	matchSD  bool
}

type faKey struct {
	line uint64
	sdid uint8
}

type faEntry struct {
	key     faKey
	core    uint8
	valid   bool
	dirty   bool
	reused  bool
	usedPos int32
}

// NewFullyAssociativeChecked creates a fully-associative cache, returning
// an error wrapping cachemodel.ErrBadConfig when capacity is invalid.
func NewFullyAssociativeChecked(capacity int, seed uint64, matchSDID bool) (*FullyAssociative, error) {
	if capacity <= 0 {
		return nil, cachemodel.BadConfigf("baseline: FullyAssociative capacity must be positive, got %d", capacity)
	}
	// Slot and usedPos fields are int32; every index below is < capacity.
	if capacity > math.MaxInt32 {
		return nil, cachemodel.BadConfigf("baseline: FullyAssociative capacity %d overflows int32 slot indices", capacity)
	}
	// At most a quarter full: on the Fig 8 attack's half-miss stream (a
	// 1,024-line cache probed by 2,048 lines, on a 2-vCPU Xeon guest) a
	// half-full index cost ~50 ns per access against ~30 ns, and an
	// eighth-full one gained nothing more.
	buckets, shift := 2, uint(63)
	for buckets < 4*capacity {
		buckets <<= 1
		shift--
	}
	c := &FullyAssociative{
		capacity: capacity,
		index:    make([]int32, buckets),
		shift:    shift,
		slots:    make([]faEntry, capacity),
		used:     make([]int32, 0, capacity),
		r:        rng.New(seed ^ 0xfa),
		matchSD:  matchSDID,
	}
	return c, nil
}

func (c *FullyAssociative) key(line uint64, sdid uint8) faKey {
	if c.matchSD {
		return faKey{line: line, sdid: sdid}
	}
	return faKey{line: line}
}

// home is k's first bucket: Fibonacci hashing keeps the product's top
// bits, which every bit of the line and the SDID reaches.
func (c *FullyAssociative) home(k faKey) uint64 {
	return ((k.line ^ uint64(k.sdid)<<56) * 0x9e3779b97f4a7c15) >> c.shift
}

// lookup returns the bucket holding k and true, or the empty bucket that
// ends k's probe chain and false. The index is at most a quarter full, so
// the chain always ends.
func (c *FullyAssociative) lookup(k faKey) (uint64, bool) {
	mask := uint64(len(c.index) - 1)
	for b := c.home(k); ; b = (b + 1) & mask {
		s := c.index[b]
		if s == 0 {
			return b, false
		}
		if c.slots[s-1].key == k {
			return b, true
		}
	}
}

// unindex empties bucket b by backward-shift deletion: each later entry of
// b's run whose probe path crosses the hole moves back into it, so every
// chain stays unbroken without tombstones.
func (c *FullyAssociative) unindex(b uint64) {
	mask := uint64(len(c.index) - 1)
	for j := (b + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		s := c.index[j]
		// The hole lies on j's path when j's home is at least as far
		// back as the hole.
		if (j-c.home(c.slots[s-1].key))&mask >= (j-b)&mask {
			c.index[b] = s
			b = j
		}
	}
	c.index[b] = 0
}

// Access implements cachemodel.LLC.
func (c *FullyAssociative) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	if a.Type == cachemodel.Read {
		s.Reads++
	} else {
		s.Writebacks++
	}
	k := c.key(a.Line, a.SDID)
	b, hit := c.lookup(k)
	if hit {
		e := &c.slots[c.index[b]-1]
		if a.Type == cachemodel.Read {
			// Only demand hits count as reuse for dead-block stats.
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
		// Find a free slot: slots are allocated densely from the front,
		// but eviction frees arbitrary slots, so track via a free scan
		// only at startup; afterwards reuse the victim's slot.
		slot = int32(len(c.used)) //mayavet:checked len(used) < capacity <= MaxInt32 (NewFullyAssociative)
		if c.slots[slot].valid {
			// Startup invariant broken only if flushes occurred; fall
			// back to a scan.
			slot = -1
			for i := range c.slots {
				if !c.slots[i].valid {
					slot = int32(i) //mayavet:checked i < capacity <= MaxInt32 (NewFullyAssociative)
					break
				}
			}
		}
	} else {
		// Random global eviction.
		pos := int32(c.r.Intn(len(c.used))) //mayavet:checked Intn < len(used) <= capacity <= MaxInt32
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
		vb, _ := c.lookup(v.key)
		c.unindex(vb)
		c.removeUsedAt(pos)
		// The deletion may have shifted k's chain; find its end again.
		b, _ = c.lookup(k)
	}

	e := &c.slots[slot]
	*e = faEntry{key: k, core: a.Core, valid: true, dirty: a.Type == cachemodel.Writeback}
	e.usedPos = int32(len(c.used)) //mayavet:checked len(used) < capacity <= MaxInt32 (NewFullyAssociative)
	c.used = append(c.used, slot)
	c.index[b] = slot + 1
	s.Fills++
	s.DataFills++
	return cachemodel.Result{Writebacks: c.wbBuf}
}

// removeUsedAt removes position pos from the dense used list (swap-remove).
func (c *FullyAssociative) removeUsedAt(pos int32) {
	last := int32(len(c.used) - 1)
	moved := c.used[last]
	c.used[pos] = moved
	c.slots[moved].usedPos = pos
	c.used = c.used[:last]
}

// Flush implements cachemodel.LLC.
func (c *FullyAssociative) Flush(line uint64, sdid uint8) bool {
	b, ok := c.lookup(c.key(line, sdid))
	if !ok {
		return false
	}
	e := &c.slots[c.index[b]-1]
	c.removeUsedAt(e.usedPos)
	c.unindex(b)
	*e = faEntry{}
	c.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (c *FullyAssociative) Probe(line uint64, sdid uint8) (bool, bool) {
	_, ok := c.lookup(c.key(line, sdid))
	return ok, ok
}

// LookupPenalty implements cachemodel.LLC.
func (c *FullyAssociative) LookupPenalty() int { return 0 }

// StatsSnapshot implements cachemodel.LLC.
func (c *FullyAssociative) StatsSnapshot() cachemodel.Stats { return c.stats }

// ResetStats implements cachemodel.LLC.
func (c *FullyAssociative) ResetStats() { c.stats.Reset() }

// Name implements cachemodel.LLC.
func (c *FullyAssociative) Name() string {
	return fmt.Sprintf("FullyAssociative-%d", c.capacity)
}

// Geometry implements cachemodel.LLC.
func (c *FullyAssociative) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       1,
		SetsPerSkew: 1,
		WaysPerSkew: c.capacity,
		DataEntries: c.capacity,
		TagEntries:  c.capacity,
	}
}

// Occupancy returns the number of resident lines.
func (c *FullyAssociative) Occupancy() int { return len(c.used) }
