package maya

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"mayacache/internal/cachemodel"
)

// mustCache unwraps NewCache for tests with known-good configs.
func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultCacheConfig(1)
	cfg.SetsPerSkew = 64 // scale down for the test
	c := mustCache(t, cfg)
	r := c.Access(Access{Line: 0x1234, Type: Read})
	if r.TagHit || r.DataHit {
		t.Fatal("first access should miss entirely")
	}
	r = c.Access(Access{Line: 0x1234, Type: Read})
	if !r.TagHit || r.DataHit {
		t.Fatal("second access should be a tag-only hit (promotion)")
	}
	r = c.Access(Access{Line: 0x1234, Type: Read})
	if !r.DataHit {
		t.Fatal("third access should hit in the data store")
	}
}

func TestSystemBuilder(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Workloads: []string{"mcf", "lbm"},
		Design:    DesignMaya,
		Seed:      1,
		FastHash:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), RunSpec{Warmup: 100_000, ROI: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("%d core results, want 2", len(res.Cores))
	}
	for _, c := range res.Cores {
		if c.IPC <= 0 {
			t.Fatalf("core %d: IPC %v", c.Core, c.IPC)
		}
	}
	if sys.LLC().Name() == "" {
		t.Fatal("LLC has no name")
	}
}

func TestSystemBuilderRejectsUnknownWorkload(t *testing.T) {
	if _, err := NewSystem(SystemConfig{Workloads: []string{"nope"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAllDesignsBuild(t *testing.T) {
	for _, d := range []Design{DesignBaseline, DesignMirage, DesignMaya} {
		sys, err := NewSystem(SystemConfig{
			Workloads: []string{"xz"},
			Design:    d,
			Seed:      2,
			FastHash:  true,
		})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		res, err := sys.Run(context.Background(), RunSpec{Warmup: 50_000, ROI: 50_000})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if res.Cores[0].Instructions == 0 {
			t.Fatalf("%s: no instructions retired", d)
		}
	}
}

// TestSystemBuilderUsesRegistry pins NewSystem to the design registry: an
// unknown name is a configuration error instead of a silent Baseline, any
// registered name builds that design, and the facade's Baseline, Mirage
// and Maya produce byte for byte the Results of a registry-built LLC.
func TestSystemBuilderUsesRegistry(t *testing.T) {
	workloads := []string{"mcf", "lbm"}
	for _, d := range []Design{"maya", "Maya-Typo"} {
		if _, err := NewSystem(SystemConfig{Workloads: workloads, Design: d}); !errors.Is(err, cachemodel.ErrBadConfig) {
			t.Errorf("Design %q: err = %v, want one wrapping cachemodel.ErrBadConfig", d, err)
		}
	}
	opts := cachemodel.BuildOptions{Cores: len(workloads), Seed: 3, FastHash: true}
	llc, err := cachemodel.Build("Baseline", opts)
	if err != nil {
		t.Fatal(err)
	}
	// No workloads is a configuration error, with or without a supplied LLC.
	for _, cfg := range []SystemConfig{{}, {LLC: llc}} {
		if _, err := NewSystem(cfg); !errors.Is(err, cachemodel.ErrBadConfig) {
			t.Errorf("no workloads, LLC %v: err = %v, want one wrapping cachemodel.ErrBadConfig", cfg.LLC != nil, err)
		}
	}
	iso, err := NewSystem(SystemConfig{Workloads: workloads, Design: "Maya-ISO", Seed: 3, FastHash: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cachemodel.Build("Maya-ISO", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := iso.LLC(); got.Name() != want.Name() || got.Geometry() != want.Geometry() {
		t.Fatalf("Maya-ISO built %s %+v, want %s %+v", got.Name(), got.Geometry(), want.Name(), want.Geometry())
	}

	run := func(cfg SystemConfig) []byte {
		t.Helper()
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), RunSpec{Warmup: 30_000, ROI: 30_000})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, d := range []Design{"", DesignBaseline, DesignMirage, DesignMaya} {
		name := d
		if name == "" {
			name = DesignBaseline
		}
		llc, err := cachemodel.Build(string(name), opts)
		if err != nil {
			t.Fatal(err)
		}
		facade := run(SystemConfig{Workloads: workloads, Design: d, Seed: 3, FastHash: true})
		registry := run(SystemConfig{Workloads: workloads, LLC: llc, Seed: 3})
		if !bytes.Equal(facade, registry) {
			t.Errorf("Design %q: facade Results differ from the registry-built %s", d, name)
		}
	}
}

func TestSecurityAPI(t *testing.T) {
	installs, err := InstallsPerSAE(SecurityPoint{BaseWays: 6, ReuseWays: 3, InvalidWays: 6})
	if err != nil {
		t.Fatal(err)
	}
	if installs < 1e31 {
		t.Fatalf("default Maya installs/SAE = %.3g, want ~1e33", installs)
	}
	if y := YearsPerSAE(installs); y < 1e14 {
		t.Fatalf("years/SAE = %.3g, want ~1e16", y)
	}
}

func TestBucketModelAPI(t *testing.T) {
	m := NewBucketModel(DefaultBucketModel(256, 1))
	m.Run(10_000)
	if m.Spills() != 0 {
		t.Fatalf("%d spills at full provisioning", m.Spills())
	}
	if err := m.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCostAPI(t *testing.T) {
	st, err := StorageAccount(DesignMaya)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.OverheadVsBaseline()+0.021) > 0.01 {
		t.Fatalf("Maya storage overhead %.3f, want ~-2%%", st.OverheadVsBaseline())
	}
	c, err := CostEstimate(DesignMaya)
	if err != nil {
		t.Fatal(err)
	}
	base, err := CostEstimate(DesignBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if c.AreaMM2 >= base.AreaMM2 {
		t.Fatal("Maya area not below baseline")
	}
	// A name the design table does not hold is a configuration error.
	if _, err := StorageAccount("maya"); !errors.Is(err, cachemodel.ErrBadConfig) {
		t.Errorf("StorageAccount(\"maya\"): err = %v, want one wrapping cachemodel.ErrBadConfig", err)
	}
	if _, err := CostEstimate("Maya-Typo"); !errors.Is(err, cachemodel.ErrBadConfig) {
		t.Errorf("CostEstimate(\"Maya-Typo\"): err = %v, want one wrapping cachemodel.ErrBadConfig", err)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := Workloads()
	if len(names) < 20 {
		t.Fatalf("only %d workloads registered", len(names))
	}
	p, err := LookupWorkload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Suite != "SPEC" {
		t.Fatalf("mcf suite %q", p.Suite)
	}
}

func TestAttackAPIFlow(t *testing.T) {
	cfg := DefaultCacheConfig(3)
	cfg.SetsPerSkew = 64
	c := mustCache(t, cfg)
	res := BuildEvictionSet(c, 0x99, 2048, 10_000_000, 3)
	if res.Found {
		t.Fatal("eviction set found against Maya via public API")
	}
	if res.SAEsObserved != 0 {
		t.Fatal("SAEs observed against Maya")
	}
	keyA, keyB := FindContrastingAESKeys(8, 8, 3)
	if keyA == keyB {
		t.Fatal("key search returned identical keys")
	}
	v := NewAESVictim(keyA, 1<<20, 8, CacheToucher(c, 2))
	o := NewOccupancy(OccupancyConfig{Cache: c, OccupancyLines: 512, SDID: 1, NoiseLines: 4, Seed: 3})
	if s := o.Sample(v); s < 0 {
		t.Fatal("negative sample")
	}
}
