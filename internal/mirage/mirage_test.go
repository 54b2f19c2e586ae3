package mirage

import (
	"testing"
	"testing/quick"
	"unsafe"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// mustNew unwraps NewChecked for tests with known-good configs.
func mustNew(cfg Config) *Mirage {
	c, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func smallConfig(seed uint64) Config {
	return Config{
		SetsPerSkew: 64,
		Skews:       2,
		BaseWays:    8,
		ExtraWays:   6,
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

func TestMissThenHit(t *testing.T) {
	c := mustNew(smallConfig(1))
	if r := c.Access(read(42)); r.DataHit {
		t.Fatal("first access hit")
	}
	if r := c.Access(read(42)); !r.DataHit {
		t.Fatal("second access missed — Mirage installs data on first fill")
	}
}

func TestEveryValidTagOwnsData(t *testing.T) {
	// Unlike Maya, a single access suffices for full residency.
	c := mustNew(smallConfig(2))
	c.Access(read(1))
	if th, dh := c.Probe(1, 0); !th || !dh {
		t.Fatalf("Probe = (%v,%v), want (true,true)", th, dh)
	}
}

func TestGlobalEvictionKeepsOccupancyAtCapacity(t *testing.T) {
	cfg := smallConfig(3)
	c := mustNew(cfg)
	capacity := cfg.Skews * cfg.SetsPerSkew * cfg.BaseWays
	r := rng.New(1)
	for i := 0; i < 50000; i++ {
		c.Access(read(r.Uint64() & 0xfffff))
		if occ := c.Occupancy(); occ > capacity {
			t.Fatalf("occupancy %d exceeds data capacity %d", occ, capacity)
		}
	}
	if c.Occupancy() != capacity {
		t.Fatalf("steady-state occupancy %d, want %d", c.Occupancy(), capacity)
	}
	if c.StatsSnapshot().GlobalDataEvictions == 0 {
		t.Fatal("no global evictions at steady state")
	}
}

func TestNoSAEWithProvisionedExtraWays(t *testing.T) {
	c := mustNew(smallConfig(4))
	r := rng.New(2)
	for i := 0; i < 1000000; i++ {
		c.Access(read(uint64(r.Uint32())))
	}
	if c.StatsSnapshot().SAEs != 0 {
		t.Fatalf("%d SAEs with 6 extra ways per skew", c.StatsSnapshot().SAEs)
	}
}

func TestSAEWithNoExtraWays(t *testing.T) {
	cfg := smallConfig(5)
	cfg.ExtraWays = 0
	c := mustNew(cfg)
	r := rng.New(3)
	for i := 0; i < 200000; i++ {
		c.Access(read(uint64(r.Uint32())))
	}
	if c.StatsSnapshot().SAEs == 0 {
		t.Fatal("no SAEs despite zero extra ways")
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestInvariantsUnderRandomStream(t *testing.T) {
	f := func(seed uint64) bool {
		c := mustNew(smallConfig(seed))
		r := rng.New(seed ^ 0xbeef)
		for i := 0; i < 5000; i++ {
			line := uint64(r.Intn(3000))
			switch r.Intn(10) {
			case 0:
				c.Flush(line, 0)
			case 1, 2:
				c.Access(wb(line))
			default:
				c.Access(read(line))
			}
		}
		return c.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	c := mustNew(smallConfig(6))
	c.Access(wb(99))
	saw := false
	r := rng.New(4)
	for i := 0; i < 100000 && !saw; i++ {
		res := c.Access(read(uint64(r.Uint32())))
		for _, w := range res.Writebacks {
			if w.Line == 99 {
				saw = true
			}
		}
	}
	if !saw {
		t.Fatal("dirty line never written back under global eviction")
	}
}

func TestSDIDIsolation(t *testing.T) {
	c := mustNew(smallConfig(7))
	c.Access(cachemodel.Access{Line: 9, Type: cachemodel.Read, SDID: 1})
	if th, _ := c.Probe(9, 2); th {
		t.Fatal("cross-domain visibility")
	}
	c.Access(cachemodel.Access{Line: 9, Type: cachemodel.Read, SDID: 2})
	if !c.Flush(9, 1) {
		t.Fatal("flush failed")
	}
	if th, _ := c.Probe(9, 2); !th {
		t.Fatal("flush of domain 1 removed domain 2's copy")
	}
}

func TestFlushDoesNotSkewDeadBlockStats(t *testing.T) {
	c := mustNew(smallConfig(8))
	c.Access(read(5))
	c.Flush(5, 0)
	s := c.StatsSnapshot()
	if s.DeadDataEvictions != 0 || s.ReusedDataEvictions != 0 {
		t.Fatalf("flush counted as eviction: dead=%d reused=%d",
			s.DeadDataEvictions, s.ReusedDataEvictions)
	}
}

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	c := mustNew(DefaultConfig(1))
	g := c.Geometry()
	if g.TagEntries != 458752 {
		t.Errorf("tag entries = %d, want 448K (458752)", g.TagEntries)
	}
	if g.DataEntries != 262144 {
		t.Errorf("data entries = %d, want 256K (262144)", g.DataEntries)
	}
	if g.DataBytes() != 16<<20 {
		t.Errorf("data bytes = %d, want 16MB", g.DataBytes())
	}
}

// TestModelFootprint pins what the model spends on Mirage: 8 bytes per
// tag entry beside the store, which holds each tag's line, SDID and
// validity once, and the flat arena of the 8-core LLC the Fig 9/10 sweeps
// build (the paper geometry with the fast hasher, so no index memo).
func TestModelFootprint(t *testing.T) {
	if got := unsafe.Sizeof(tagEntry{}); got != 8 {
		t.Errorf("tag entry takes %d bytes, want 8", got)
	}
	cfg := DefaultConfig(1)
	if cfg.SetsPerSkew != 8*cachemodel.DefaultSetsPerCore {
		t.Fatalf("default geometry has %d sets per skew, not 8 cores' worth", cfg.SetsPerSkew)
	}
	cfg.Hasher = cachemodel.NewXorHasher(cfg.Skews, cachemodel.Log2(cfg.SetsPerSkew), 1)
	// Per tag: 8 B of entry, 8 B of line, 2 B of SDID and validity, 2 B
	// of probe word; per data slot 12 B; per set a valid count and an
	// invalid-way mask; plus alignment padding.
	if got, want := arenaBytes(cfg), 12_779_552; got != want {
		t.Errorf("8-core arena is %d bytes, want %d", got, want)
	}
}

// TestLiteConfig checks the Mirage-Lite row's cache: one extra way fewer
// per skew, and a name that carries the row's "-Lite".
func TestLiteConfig(t *testing.T) {
	c := mustNew(config(cachemodel.MirageLite, 8*cachemodel.DefaultSetsPerCore, 1, nil))
	if c.Geometry().WaysPerSkew != 13 {
		t.Errorf("Mirage-Lite ways per skew = %d, want 13", c.Geometry().WaysPerSkew)
	}
	if c.Name() != "Mirage-8b5e-Lite" {
		t.Errorf("unexpected name %q", c.Name())
	}
}

func TestLookupPenalty(t *testing.T) {
	if p := mustNew(smallConfig(9)).LookupPenalty(); p != 4 {
		t.Fatalf("LookupPenalty = %d, want 4", p)
	}
}

func TestRekeyOnSAE(t *testing.T) {
	cfg := smallConfig(10)
	cfg.ExtraWays = 0
	cfg.RekeyOnSAE = true
	c := mustNew(cfg)
	r := rng.New(5)
	for i := 0; i < 200000 && c.StatsSnapshot().Rekeys == 0; i++ {
		c.Access(read(uint64(r.Uint32())))
	}
	if c.StatsSnapshot().Rekeys == 0 {
		t.Fatal("no rekey despite forced SAEs")
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("audit after rekey: %v", err)
	}
}

func BenchmarkMirageAccess(b *testing.B) {
	c := mustNew(DefaultConfig(1))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(read(r.Uint64() & 0xffffff))
	}
}
