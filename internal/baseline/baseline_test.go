package baseline

import (
	"testing"
	"testing/quick"

	"mayacache/internal/cachemodel"
)

// mustNew unwraps NewChecked for tests with known-good configs.
func mustNew(cfg Config) *SetAssoc {
	c, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// mustNewFA unwraps NewFullyAssociativeChecked likewise.
func mustNewFA(capacity int, seed uint64, matchSDID bool) *FullyAssociative {
	c, err := NewFullyAssociativeChecked(capacity, seed, matchSDID)
	if err != nil {
		panic(err)
	}
	return c
}

func mkCache(t *testing.T, k ReplacementKind, sets, ways int) *SetAssoc {
	t.Helper()
	return mustNew(Config{Sets: sets, Ways: ways, Replacement: k, Seed: 1})
}

func read(line uint64) cachemodel.Access {
	return cachemodel.Access{Line: line, Type: cachemodel.Read}
}

func wb(line uint64) cachemodel.Access {
	return cachemodel.Access{Line: line, Type: cachemodel.Writeback}
}

func TestMissThenHit(t *testing.T) {
	for _, k := range []ReplacementKind{LRU, SRRIP, BRRIP, DRRIP, RandomRepl} {
		c := mkCache(t, k, 16, 4)
		if r := c.Access(read(100)); r.DataHit {
			t.Fatalf("%v: first access hit", k)
		}
		if r := c.Access(read(100)); !r.DataHit {
			t.Fatalf("%v: second access missed", k)
		}
	}
}

func TestFillsWholeSetBeforeEvicting(t *testing.T) {
	c := mkCache(t, LRU, 2, 4)
	// Lines 0,2,4,6 all map to set 0 with modulo indexing over 2 sets.
	for i := uint64(0); i < 4; i++ {
		if r := c.Access(read(i * 2)); r.SAE {
			t.Fatalf("fill %d caused eviction with free ways", i)
		}
	}
	if r := c.Access(read(8)); !r.SAE {
		t.Fatal("fifth distinct line in 4-way set did not evict")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := mkCache(t, LRU, 1, 4)
	for i := uint64(0); i < 4; i++ {
		c.Access(read(i))
	}
	// Touch 0,1,2 so 3 is LRU.
	c.Access(read(0))
	c.Access(read(1))
	c.Access(read(2))
	c.Access(read(99)) // evicts 3
	if hit, _ := c.Probe(3, 0); hit {
		t.Fatal("line 3 survived; LRU should have evicted it")
	}
	for _, l := range []uint64{0, 1, 2, 99} {
		if hit, _ := c.Probe(l, 0); !hit {
			t.Fatalf("line %d was evicted; should be resident", l)
		}
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := mkCache(t, SRRIP, 1, 4)
	for i := uint64(0); i < 4; i++ {
		c.Access(read(i))
	}
	c.Access(read(0)) // promote 0 to RRPV 0
	// Insert enough new lines that un-promoted lines rotate out first.
	c.Access(read(100))
	if hit, _ := c.Probe(0, 0); !hit {
		t.Fatal("promoted line 0 was evicted before distant lines")
	}
}

func TestWritebackAllocatesDirty(t *testing.T) {
	c := mkCache(t, LRU, 1, 2)
	c.Access(wb(1))
	c.Access(read(2))
	// Evict both by filling with new lines; line 1 must come back dirty.
	r1 := c.Access(read(3))
	r2 := c.Access(read(4))
	dirtyWBs := len(r1.Writebacks) + len(r2.Writebacks)
	if dirtyWBs != 1 {
		t.Fatalf("expected exactly 1 dirty writeback, got %d", dirtyWBs)
	}
}

func TestWritebackHitMarksDirty(t *testing.T) {
	c := mkCache(t, LRU, 1, 2)
	c.Access(read(1)) // clean fill
	c.Access(wb(1))   // now dirty
	c.Access(read(2))
	r := c.Access(read(3)) // evicts line 1 (LRU)
	found := false
	for _, w := range r.Writebacks {
		if w.Line == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("dirtied line 1 not written back on eviction")
	}
}

func TestFlush(t *testing.T) {
	c := mkCache(t, LRU, 4, 4)
	c.Access(read(10))
	if !c.Flush(10, 0) {
		t.Fatal("flush of resident line failed")
	}
	if c.Flush(10, 0) {
		t.Fatal("flush of absent line succeeded")
	}
	if hit, _ := c.Probe(10, 0); hit {
		t.Fatal("line resident after flush")
	}
}

func TestSDIDMatching(t *testing.T) {
	c := mustNew(Config{Sets: 4, Ways: 4, Replacement: LRU, Seed: 1, MatchSDID: true})
	c.Access(cachemodel.Access{Line: 5, Type: cachemodel.Read, SDID: 1})
	if hit, _ := c.Probe(5, 2); hit {
		t.Fatal("SDID 2 sees SDID 1's line with MatchSDID")
	}
	if hit, _ := c.Probe(5, 1); !hit {
		t.Fatal("SDID 1 cannot see its own line")
	}
	// Without MatchSDID, domains share lines.
	c2 := mkCache(t, LRU, 4, 4)
	c2.Access(cachemodel.Access{Line: 5, Type: cachemodel.Read, SDID: 1})
	if hit, _ := c2.Probe(5, 2); !hit {
		t.Fatal("baseline without MatchSDID should share lines across domains")
	}
}

func TestDeadBlockAccounting(t *testing.T) {
	c := mkCache(t, LRU, 1, 2)
	c.Access(read(1))
	c.Access(read(2))
	c.Access(read(1)) // line 1 reused
	c.Access(read(3)) // evicts 2 (dead)
	c.Access(read(4)) // evicts 1 (reused)
	s := c.StatsSnapshot()
	if s.DeadDataEvictions != 1 || s.ReusedDataEvictions != 1 {
		t.Fatalf("dead/reused = %d/%d, want 1/1", s.DeadDataEvictions, s.ReusedDataEvictions)
	}
}

func TestInterCoreEvictionAccounting(t *testing.T) {
	c := mkCache(t, LRU, 1, 1)
	c.Access(cachemodel.Access{Line: 1, Type: cachemodel.Read, Core: 0})
	c.Access(cachemodel.Access{Line: 2, Type: cachemodel.Read, Core: 1}) // core 1 evicts core 0
	if c.StatsSnapshot().InterCoreEvictions != 1 {
		t.Fatalf("InterCoreEvictions = %d, want 1", c.StatsSnapshot().InterCoreEvictions)
	}
}

func TestStatsConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		c := mustNew(Config{Sets: 8, Ways: 4, Replacement: SRRIP, Seed: seed})
		lines := make([]uint64, 0, 200)
		s := seed
		for i := 0; i < 200; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			lines = append(lines, s%64)
		}
		for _, l := range lines {
			c.Access(read(l))
		}
		st := c.StatsSnapshot()
		return st.Accesses == 200 &&
			st.TagHits+st.Misses == st.Accesses &&
			st.Fills == st.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c := mkCache(t, RandomRepl, 4, 2)
	for i := uint64(0); i < 1000; i++ {
		c.Access(read(i * 7))
		if occ := c.Occupancy(); occ > 8 {
			t.Fatalf("occupancy %d exceeds capacity 8", occ)
		}
	}
	if c.Occupancy() != 8 {
		t.Fatalf("steady-state occupancy %d, want 8", c.Occupancy())
	}
}

func TestDRRIPBasic(t *testing.T) {
	c := mkCache(t, DRRIP, 64, 4)
	// Mixed stream: hot set + streaming; DRRIP must behave sanely.
	for i := 0; i < 20000; i++ {
		c.Access(read(uint64(i % 32)))    // hot
		c.Access(read(uint64(10000 + i))) // stream
	}
	s := c.StatsSnapshot()
	if s.DataHits == 0 {
		t.Fatal("DRRIP never hit on a hot working set")
	}
}

func TestFAMissThenHitAndCapacity(t *testing.T) {
	c := mustNewFA(16, 1, false)
	if r := c.Access(read(1)); r.DataHit {
		t.Fatal("first FA access hit")
	}
	if r := c.Access(read(1)); !r.DataHit {
		t.Fatal("second FA access missed")
	}
	for i := uint64(0); i < 1000; i++ {
		c.Access(read(i))
		if c.Occupancy() > 16 {
			t.Fatalf("FA occupancy %d > 16", c.Occupancy())
		}
	}
}

func TestFANoConflictsUnderCapacity(t *testing.T) {
	// Any 16 distinct lines must coexist — the defining FA property.
	c := mustNewFA(16, 1, false)
	for i := uint64(0); i < 16; i++ {
		c.Access(read(i * 1024)) // same low bits: would conflict in a set-assoc cache
	}
	for i := uint64(0); i < 16; i++ {
		if hit, _ := c.Probe(i*1024, 0); !hit {
			t.Fatalf("line %d evicted below capacity", i)
		}
	}
}

func TestFAFlushAndRefill(t *testing.T) {
	c := mustNewFA(4, 1, true)
	c.Access(cachemodel.Access{Line: 9, Type: cachemodel.Read, SDID: 3})
	if !c.Flush(9, 3) {
		t.Fatal("flush failed")
	}
	if c.Occupancy() != 0 {
		t.Fatalf("occupancy %d after flush", c.Occupancy())
	}
	// Refill to capacity exercises the free-slot scan after a flush.
	for i := uint64(0); i < 8; i++ {
		c.Access(cachemodel.Access{Line: i, Type: cachemodel.Read, SDID: 3})
	}
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy %d, want 4", c.Occupancy())
	}
}

func TestFADirtyWriteback(t *testing.T) {
	c := mustNewFA(2, 1, false)
	c.Access(wb(1))
	c.Access(wb(2))
	sawWB := false
	for i := uint64(10); i < 20 && !sawWB; i++ {
		r := c.Access(read(i))
		sawWB = len(r.Writebacks) > 0
	}
	if !sawWB {
		t.Fatal("dirty lines never written back under random eviction")
	}
}

func TestGeometry(t *testing.T) {
	c := mkCache(t, SRRIP, 16384, 16)
	g := c.Geometry()
	if g.DataEntries != 262144 {
		t.Fatalf("16K sets x 16 ways = %d entries, want 262144", g.DataEntries)
	}
	if g.DataBytes() != 16<<20 {
		t.Fatalf("data bytes = %d, want 16MB", g.DataBytes())
	}
}

func TestReplacementKindString(t *testing.T) {
	for k, want := range map[ReplacementKind]string{
		LRU: "LRU", SRRIP: "SRRIP", BRRIP: "BRRIP", DRRIP: "DRRIP", RandomRepl: "Random",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func BenchmarkSetAssocAccess(b *testing.B) {
	c := mustNew(Config{Sets: 16384, Ways: 16, Replacement: SRRIP, Seed: 1})
	for i := 0; i < b.N; i++ {
		c.Access(read(uint64(i) * 97))
	}
}

func BenchmarkFAAccess(b *testing.B) {
	c := mustNewFA(262144, 1, false)
	for i := 0; i < b.N; i++ {
		c.Access(read(uint64(i) * 97))
	}
}
