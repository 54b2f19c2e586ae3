package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// mustNew unwraps NewChecked for tests with known-good configs.
func mustNew(cfg Config) *Maya {
	m, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// smallConfig returns a Maya cache scaled down for fast tests: 2 skews x
// 64 sets x (6+3+6) ways, 768 data entries, with the fast hasher.
func smallConfig(seed uint64) Config {
	return Config{
		SetsPerSkew: 64,
		Skews:       2,
		BaseWays:    6,
		ReuseWays:   3,
		InvalidWays: 6,
		Seed:        seed,
		Hasher:      cachemodel.NewXorHasher(2, 6, seed),
	}
}

func read(line uint64) cachemodel.Access {
	return cachemodel.Access{Line: line, Type: cachemodel.Read}
}

func wb(line uint64) cachemodel.Access {
	return cachemodel.Access{Line: line, Type: cachemodel.Writeback}
}

func TestReuseFiltering(t *testing.T) {
	m := mustNew(smallConfig(1))
	// First access: full miss, priority-0 fill, no data.
	r := m.Access(read(42))
	if r.TagHit || r.DataHit {
		t.Fatalf("first access: TagHit=%v DataHit=%v, want miss", r.TagHit, r.DataHit)
	}
	if th, dh := m.Probe(42, 0); !th || dh {
		t.Fatalf("after P0 fill: Probe = (%v,%v), want (true,false)", th, dh)
	}
	// Second access: tag-only hit -> promotion, still a data miss.
	r = m.Access(read(42))
	if !r.TagHit || r.DataHit {
		t.Fatalf("second access: TagHit=%v DataHit=%v, want tag-only hit", r.TagHit, r.DataHit)
	}
	if th, dh := m.Probe(42, 0); !th || !dh {
		t.Fatalf("after promotion: Probe = (%v,%v), want (true,true)", th, dh)
	}
	// Third access: full data hit.
	r = m.Access(read(42))
	if !r.DataHit {
		t.Fatal("third access missed; data should be resident")
	}
	s := m.StatsSnapshot()
	if s.TagOnlyHits != 1 || s.DataHits != 1 || s.Misses != 2 {
		t.Fatalf("stats: TagOnlyHits=%d DataHits=%d Misses=%d, want 1/1/2",
			s.TagOnlyHits, s.DataHits, s.Misses)
	}
}

func TestWritebackMissInstallsPriority1Dirty(t *testing.T) {
	m := mustNew(smallConfig(2))
	r := m.Access(wb(7))
	if r.TagHit || r.DataHit {
		t.Fatal("writeback miss should report a miss")
	}
	// The line must now be priority-1 (data resident) per Fig 3.
	if th, dh := m.Probe(7, 0); !th || !dh {
		t.Fatalf("after writeback fill: Probe = (%v,%v), want (true,true)", th, dh)
	}
	// Evicting it must produce a dirty writeback eventually. Force with
	// enough writeback fills to cycle the small data store.
	saw := false
	for i := uint64(1000); i < 3000 && !saw; i++ {
		res := m.Access(wb(i))
		for _, w := range res.Writebacks {
			if w.Line == 7 {
				saw = true
			}
		}
		if _, dh := m.Probe(7, 0); !dh && !saw {
			t.Fatal("line 7 lost its data without a writeback")
		}
	}
	if !saw {
		t.Skip("line 7 survived 2000 random evictions (possible but unlikely)")
	}
}

func TestPromotionOnWritebackMarksDirty(t *testing.T) {
	m := mustNew(smallConfig(3))
	m.Access(read(5)) // P0
	m.Access(wb(5))   // promote, dirty
	if th, dh := m.Probe(5, 0); !th || !dh {
		t.Fatal("promotion via writeback failed")
	}
	// Flush must count a memory writeback for the dirty data.
	before := m.StatsSnapshot().WritebacksToMem
	m.Flush(5, 0)
	if m.StatsSnapshot().WritebacksToMem != before+1 {
		t.Fatal("flush of dirty line did not write back")
	}
}

func TestSteadyStatePopulations(t *testing.T) {
	cfg := smallConfig(4)
	m := mustNew(cfg)
	r := rng.New(99)
	// Drive with a mixed stream until well past capacity.
	for i := 0; i < 100000; i++ {
		line := uint64(r.Intn(4096))
		if r.Bool(0.3) {
			m.Access(wb(line))
		} else {
			m.Access(read(line))
		}
	}
	p0, p1, _ := m.Population()
	p0Cap := cfg.Skews * cfg.SetsPerSkew * cfg.ReuseWays
	dataCap := cfg.Skews * cfg.SetsPerSkew * cfg.BaseWays
	if p0 != p0Cap {
		t.Errorf("steady-state P0 = %d, want cap %d", p0, p0Cap)
	}
	if p1 != dataCap {
		t.Errorf("steady-state P1 = %d, want data capacity %d", p1, dataCap)
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestInvariantsUnderRandomStream(t *testing.T) {
	f := func(seed uint64) bool {
		m := mustNew(smallConfig(seed))
		r := rng.New(seed ^ 0xf00d)
		for i := 0; i < 5000; i++ {
			line := uint64(r.Intn(2000))
			switch r.Intn(10) {
			case 0:
				m.Flush(line, 0)
			case 1, 2:
				m.Access(wb(line))
			default:
				m.Access(read(line))
			}
		}
		return m.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNoSAEWithProvisionedInvalidWays(t *testing.T) {
	// With 6 invalid ways per skew and load-aware selection, SAEs occur
	// ~once per 10^32 installs; a million installs must see none.
	m := mustNew(smallConfig(5))
	r := rng.New(1)
	for i := 0; i < 1000000; i++ {
		m.Access(read(uint64(r.Uint32())))
	}
	if m.StatsSnapshot().SAEs != 0 {
		t.Fatalf("%d SAEs with provisioned invalid ways", m.StatsSnapshot().SAEs)
	}
}

func TestSAEWithNoInvalidWays(t *testing.T) {
	cfg := smallConfig(6)
	cfg.InvalidWays = 0
	m := mustNew(cfg)
	r := rng.New(2)
	// Writeback misses install priority-1 entries, filling sets up to
	// their base+reuse capacity; with no invalid ways, load imbalance
	// must produce SAEs quickly.
	for i := 0; i < 200000; i++ {
		if r.Bool(0.5) {
			m.Access(wb(uint64(r.Uint32())))
		} else {
			m.Access(read(uint64(r.Uint32())))
		}
	}
	if m.StatsSnapshot().SAEs == 0 {
		t.Fatal("no SAEs despite zero invalid ways")
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("audit after SAEs: %v", err)
	}
}

func TestGlobalEvictionCounters(t *testing.T) {
	m := mustNew(smallConfig(7))
	r := rng.New(3)
	// Promote lines until the data store cycles.
	for i := 0; i < 50000; i++ {
		line := uint64(r.Intn(3000))
		m.Access(read(line))
	}
	s := m.StatsSnapshot()
	if s.GlobalTagEvictions == 0 {
		t.Error("no global tag evictions under tag-store pressure")
	}
	if s.GlobalDataEvictions == 0 {
		t.Error("no global data evictions under data-store pressure")
	}
}

func TestSDIDIsolation(t *testing.T) {
	m := mustNew(smallConfig(8))
	m.Access(cachemodel.Access{Line: 9, Type: cachemodel.Read, SDID: 1})
	if th, _ := m.Probe(9, 2); th {
		t.Fatal("domain 2 observes domain 1's fill")
	}
	m.Access(cachemodel.Access{Line: 9, Type: cachemodel.Read, SDID: 2})
	// Both domains hold independent copies now.
	if th, _ := m.Probe(9, 1); !th {
		t.Fatal("domain 1's copy vanished")
	}
	if th, _ := m.Probe(9, 2); !th {
		t.Fatal("domain 2's copy missing")
	}
	// Flushing domain 1's copy must not affect domain 2.
	if !m.Flush(9, 1) {
		t.Fatal("flush failed")
	}
	if th, _ := m.Probe(9, 2); !th {
		t.Fatal("flush of domain 1 removed domain 2's copy")
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	m := mustNew(smallConfig(9))
	m.Access(read(1))
	for i := 0; i < 100; i++ {
		m.Probe(1, 0)
	}
	// The line must still be priority-0: probes are not accesses.
	if th, dh := m.Probe(1, 0); !th || dh {
		t.Fatal("Probe mutated priority state")
	}
	if m.StatsSnapshot().Accesses != 1 {
		t.Fatal("Probe counted as access")
	}
}

func TestLookupPenalty(t *testing.T) {
	m := mustNew(smallConfig(10))
	if p := m.LookupPenalty(); p != 4 {
		t.Fatalf("LookupPenalty = %d, want 4 (3 PRINCE + 1 indirection)", p)
	}
}

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	m := mustNew(DefaultConfig(1))
	g := m.Geometry()
	if g.TagEntries != 491520 {
		t.Errorf("tag entries = %d, want 480K (491520)", g.TagEntries)
	}
	if g.DataEntries != 196608 {
		t.Errorf("data entries = %d, want 192K (196608)", g.DataEntries)
	}
	if g.DataBytes() != 12<<20 {
		t.Errorf("data bytes = %d, want 12MB", g.DataBytes())
	}
	if g.WaysPerSkew != 15 {
		t.Errorf("ways per skew = %d, want 15", g.WaysPerSkew)
	}
}

// TestModelFootprint pins what the model spends on Maya: 12 bytes per tag
// entry beside the store, which holds each tag's line, SDID and validity
// once, and the flat arena of the 8-core LLC the Fig 9/10 sweeps build
// (the paper geometry with the fast hasher, so no index memo).
func TestModelFootprint(t *testing.T) {
	if got := unsafe.Sizeof(tagEntry{}); got != 12 {
		t.Errorf("tag entry takes %d bytes, want 12", got)
	}
	cfg := DefaultConfig(1)
	if cfg.SetsPerSkew != 8*cachemodel.DefaultSetsPerCore {
		t.Fatalf("default geometry has %d sets per skew, not 8 cores' worth", cfg.SetsPerSkew)
	}
	cfg.Hasher = cachemodel.NewXorHasher(cfg.Skews, cachemodel.Log2(cfg.SetsPerSkew), 1)
	// Per tag: 12 B of entry, 8 B of line, 2 B of SDID and validity, 2 B
	// of probe word; per data slot 12 B; per set a valid count and an
	// invalid-way mask; then p0List; plus alignment padding.
	if got, want := arenaBytes(cfg), 14_942_303; got != want {
		t.Errorf("8-core arena is %d bytes, want %d", got, want)
	}
}

func TestRekeyOnSAE(t *testing.T) {
	cfg := smallConfig(11)
	cfg.InvalidWays = 0
	cfg.RekeyOnSAE = true
	m := mustNew(cfg)
	r := rng.New(4)
	for i := 0; i < 100000 && m.StatsSnapshot().Rekeys == 0; i++ {
		if r.Bool(0.5) {
			m.Access(wb(uint64(r.Uint32())))
		} else {
			m.Access(read(uint64(r.Uint32())))
		}
	}
	if m.StatsSnapshot().Rekeys == 0 {
		t.Fatal("no rekey despite SAEs being forced")
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("audit after rekey: %v", err)
	}
	// The flush must have emptied the cache at the rekey point; keep
	// running to verify it refills correctly.
	for i := 0; i < 1000; i++ {
		m.Access(read(uint64(i)))
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("audit after refill: %v", err)
	}
}

func TestDeadBlockAccounting(t *testing.T) {
	m := mustNew(smallConfig(12))
	r := rng.New(5)
	// A re-referenced working set larger than the 768-entry data store:
	// promotions must cycle the data store and account evictions.
	for i := 0; i < 50000; i++ {
		m.Access(read(uint64(r.Intn(2000))))
	}
	s := m.StatsSnapshot()
	if s.DeadDataEvictions+s.ReusedDataEvictions == 0 {
		t.Fatal("no data evictions accounted")
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"non-pow2 sets": {SetsPerSkew: 100, Skews: 2, BaseWays: 6},
		"one skew":      {SetsPerSkew: 64, Skews: 1, BaseWays: 6},
		"zero base":     {SetsPerSkew: 64, Skews: 2, BaseWays: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			mustNew(cfg)
		}()
	}
}

func TestFlushAbsentLine(t *testing.T) {
	m := mustNew(smallConfig(13))
	if m.Flush(12345, 0) {
		t.Fatal("flush of absent line reported success")
	}
}

func BenchmarkMayaAccess(b *testing.B) {
	m := mustNew(DefaultConfig(1))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(read(r.Uint64() & 0xffffff))
	}
}

func BenchmarkMayaAccessXorHasher(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Hasher = cachemodel.NewXorHasher(2, 14, 1)
	m := mustNew(cfg)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(read(r.Uint64() & 0xffffff))
	}
}
