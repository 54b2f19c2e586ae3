package attack

import (
	"context"
	"crypto/aes"
	"math/big"
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	maya "mayacache/internal/core"
	"mayacache/internal/mirage"
	"mayacache/internal/rng"
)

// mustLLC unwraps a checked cache constructor for statically valid test
// geometries.
func mustLLC[T cachemodel.LLC](c T, err error) T {
	if err != nil {
		panic(err)
	}
	return c
}

func TestAESMatchesCryptoAES(t *testing.T) {
	// The T-table implementation must be real AES-128.
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		var key, pt [16]byte
		for i := range key {
			key[i] = byte(r.Uint32())
			pt[i] = byte(r.Uint32())
		}
		ours := NewAES(key, 0, nil)
		got := ours.Encrypt(pt)
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 16)
		ref.Encrypt(want, pt[:])
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: AES mismatch at byte %d: %02x vs %02x", trial, i, got[i], want[i])
			}
		}
	}
}

func TestAESTraceCoversTables(t *testing.T) {
	var lines []uint64
	a := NewAES([16]byte{1, 2, 3}, 1000, func(l uint64) { lines = append(lines, l) })
	a.Encrypt([16]byte{9, 8, 7})
	// 9 main rounds x 16 lookups + 16 final-round S-box touches.
	if len(lines) != 9*16+16 {
		t.Fatalf("%d table touches, want %d", len(lines), 9*16+16)
	}
	for _, l := range lines {
		// Tables span lines [1000, 1000+4*16+4).
		if l < 1000 || l >= 1000+68 {
			t.Fatalf("table touch outside table region: %d", l)
		}
	}
}

func TestAESKeysGiveDistinctTraces(t *testing.T) {
	trace := func(dst *[]uint64) func(uint64) {
		return func(l uint64) { *dst = append(*dst, l) }
	}
	var la, lb []uint64
	a := NewAES([16]byte{1}, 0, trace(&la))
	b := NewAES([16]byte{2}, 0, trace(&lb))
	pt := [16]byte{42}
	a.Encrypt(pt)
	b.Encrypt(pt)
	same := true
	for i := range la {
		if la[i] != lb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys produced identical table traces")
	}
}

func TestModExpMatchesBigInt(t *testing.T) {
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	g := big.NewInt(3)
	m := NewModExp(g, mod, 0, 1, nil)
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		exp := new(big.Int).SetUint64(r.Uint64())
		got := m.Exp(exp)
		want := new(big.Int).Exp(g, exp, mod)
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: modexp mismatch for e=%v", trial, exp)
		}
	}
}

func TestModExpTraceDependsOnExponent(t *testing.T) {
	mod := big.NewInt(1)
	mod.Lsh(mod, 127)
	mod.Sub(mod, big.NewInt(1)) // 2^127-1
	var la, lb []uint64
	ma := NewModExp(big.NewInt(3), mod, 0, 1, func(l uint64) { la = append(la, l) })
	mb := NewModExp(big.NewInt(3), mod, 0, 1, func(l uint64) { lb = append(lb, l) })
	ma.Exp(new(big.Int).SetUint64(0xdeadbeefcafebabe))
	mb.Exp(new(big.Int).SetUint64(0x0123456789abcdef))
	if len(la) == 0 || len(lb) == 0 {
		t.Fatal("no table accesses recorded")
	}
	same := len(la) == len(lb)
	if same {
		for i := range la {
			if la[i] != lb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different exponents produced identical table traces")
	}
}

func TestModExpVictimDeterministic(t *testing.T) {
	var la, lb []uint64
	va := NewModExpVictim(42, 128, 0, func(l uint64) { la = append(la, l) })
	vb := NewModExpVictim(42, 128, 0, func(l uint64) { lb = append(lb, l) })
	va.Run()
	vb.Run()
	if len(la) != len(lb) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same seed, different traces")
		}
	}
}

func smallSetAssoc(seed uint64) cachemodel.LLC {
	return mustLLC(baseline.NewChecked(baseline.Config{Sets: 64, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
}

func smallMaya(seed uint64) cachemodel.LLC {
	return mustLLC(maya.NewChecked(maya.Config{
		SetsPerSkew: 64, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6,
		Seed: seed, Hasher: cachemodel.NewXorHasher(2, 6, seed),
	}))
}

func smallFA(seed uint64) cachemodel.LLC {
	return mustLLC(baseline.NewFullyAssociativeChecked(1024, seed, true))
}

func TestOccupancySignalExists(t *testing.T) {
	// The attacker must observe a nonzero footprint from AES runs.
	c := smallFA(1)
	v := NewAESVictim([16]byte{1}, 1<<20, 16, CacheToucher(c, 2))
	o := NewOccupancy(OccupancyConfig{Cache: c, OccupancyLines: 1024, SDID: 1, NoiseLines: 8, Seed: 1})
	total := 0
	for i := 0; i < 20; i++ {
		total += o.Sample(v)
	}
	if total == 0 {
		t.Fatal("occupancy attacker observed no victim footprint")
	}
}

func TestDistinguishModExpKeys(t *testing.T) {
	// Two different exponents must be distinguishable through the
	// occupancy channel on a fully-associative cache.
	// 64-bit exponents: 16 windows, so the number of distinct table
	// entries an exponentiation touches varies by key.
	c := smallFA(3)
	// Seeds 1 and 4 give footprints of 10 and 7 distinct table lines —
	// the "different reuse profiles" the paper's attacker exploits.
	va := NewModExpVictim(1, 64, 1<<20, CacheToucher(c, 2))
	vb := NewModExpVictim(4, 64, 1<<20, CacheToucher(c, 3))
	// Against random replacement the occupancy set must exceed capacity
	// so each probe pass churns the victim's lines back out.
	o := NewOccupancy(OccupancyConfig{Cache: c, OccupancyLines: 2048, SDID: 1, NoiseLines: 8, Seed: 3})
	n := o.Distinguish(va, vb, 4.5, 3000)
	if n >= 3000 {
		t.Fatal("modexp keys not distinguishable within 3000 samples")
	}
}

func TestEvictionSetFoundOnBaseline(t *testing.T) {
	c := smallSetAssoc(1)
	res := BuildEvictionSet(c, 12345, 4096, 50_000_000, 1)
	if !res.Found {
		t.Fatalf("no eviction set against a conventional cache (size %d, SAEs %d)", res.SetSize, res.SAEsObserved)
	}
	if res.SAEsObserved == 0 {
		t.Fatal("eviction-set construction observed no SAEs on a conventional cache")
	}
}

func TestEvictionSetNotFoundOnMaya(t *testing.T) {
	c := smallMaya(2)
	res := BuildEvictionSet(c, 12345, 4096, 50_000_000, 2)
	if res.Found {
		t.Fatalf("found an eviction set of size %d against Maya", res.SetSize)
	}
	if res.SAEsObserved != 0 {
		t.Fatalf("Maya logged %d SAEs during construction", res.SAEsObserved)
	}
}

func BenchmarkAESEncrypt(b *testing.B) {
	a := NewAES([16]byte{1, 2, 3, 4}, 0, nil)
	pt := [16]byte{5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		pt = a.Encrypt(pt)
	}
}

func BenchmarkOccupancySample(b *testing.B) {
	c := smallFA(1)
	v := NewAESVictim([16]byte{1}, 1<<20, 16, CacheToucher(c, 2))
	o := NewOccupancy(OccupancyConfig{Cache: c, OccupancyLines: 1024, SDID: 1, NoiseLines: 8, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Sample(v)
	}
}

func TestFlushReloadLeaksOnBaseline(t *testing.T) {
	// Without SDID matching, the shared line is one physical copy: the
	// classic Flush+Reload works.
	c := mustLLC(baseline.NewChecked(baseline.Config{Sets: 64, Ways: 16, Replacement: baseline.LRU, Seed: 1}))
	res := FlushReload(c, 42, 1, 2, 400, 1)
	if !res.Leaks() {
		t.Fatalf("Flush+Reload did not leak on a shared-line baseline (accuracy %.2f)", res.Accuracy())
	}
}

func TestFlushReloadDefeatedByMaya(t *testing.T) {
	// Maya duplicates shared lines per domain: the attacker's reload
	// observes only its own (flushed) copy.
	c := smallMaya(3)
	res := FlushReload(c, 42, 1, 2, 400, 1)
	if res.Leaks() {
		t.Fatalf("Flush+Reload leaked against Maya (accuracy %.2f)", res.Accuracy())
	}
	if res.Accuracy() < 0.4 || res.Accuracy() > 0.6 {
		t.Fatalf("accuracy %.2f should be ~chance", res.Accuracy())
	}
}

func TestFlushReloadDefeatedByMirage(t *testing.T) {
	c := mustLLC(mirage.NewChecked(mirage.Config{
		SetsPerSkew: 64, Skews: 2, BaseWays: 8, ExtraWays: 6, Seed: 1,
		Hasher: cachemodel.NewXorHasher(2, 6, 1),
	}))
	res := FlushReload(c, 42, 1, 2, 400, 1)
	if res.Leaks() {
		t.Fatalf("Flush+Reload leaked against Mirage (accuracy %.2f)", res.Accuracy())
	}
}

func TestFlushAssistedEvictionSetOnBaseline(t *testing.T) {
	c := smallSetAssoc(5)
	res := BuildEvictionSetFlushAssisted(c, 777, 4096, 50_000_000, 5)
	if !res.Found {
		t.Fatalf("flush-assisted construction failed on a conventional cache (size %d)", res.SetSize)
	}
}

func TestFlushAssistedFailsOnMaya(t *testing.T) {
	c := smallMaya(6)
	res := BuildEvictionSetFlushAssisted(c, 777, 4096, 50_000_000, 6)
	if res.Found {
		t.Fatalf("flush-assisted construction succeeded against Maya (size %d)", res.SetSize)
	}
	if res.SAEsObserved != 0 {
		t.Fatalf("Maya logged %d SAEs", res.SAEsObserved)
	}
}

func TestReloadRefreshPredictableOnLRU(t *testing.T) {
	// Recency-based replacement makes the victim's eviction predictable
	// — the Reload+Refresh prerequisite.
	p, err := Trials{Runs: 40, Workers: 1, Seed: 1}.ReplacementPredictabilityCtx(context.Background(), func(seed uint64) cachemodel.LLC {
		return mustLLC(baseline.NewChecked(baseline.Config{Sets: 16, Ways: 8, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.9 {
		t.Fatalf("LRU victim-eviction predictability %.2f, want ~1", p)
	}
}

func TestReloadRefreshDefeatedByMaya(t *testing.T) {
	// Global random eviction: no conditioning makes a specific line the
	// next victim (Section IV-C's Reload+Refresh mitigation).
	p, err := Trials{Runs: 40, Workers: 1, Seed: 2}.ReplacementPredictabilityCtx(context.Background(), func(seed uint64) cachemodel.LLC {
		return mustLLC(maya.NewChecked(maya.Config{
			SetsPerSkew: 16, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6,
			Seed: seed, Hasher: cachemodel.NewXorHasher(2, 4, seed),
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.5 {
		t.Fatalf("Maya victim-eviction predictability %.2f, want near chance", p)
	}
}
