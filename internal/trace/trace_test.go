package trace

import (
	"testing"
)

// testProfile looks up a registered benchmark, failing the test when the
// name is unknown.
func testProfile(t testing.TB, name string) Profile {
	t.Helper()
	p, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testGen builds a generator, failing the test on a profile error.
func testGen(t testing.TB, p Profile, coreID int, seed uint64) Generator {
	t.Helper()
	g, err := NewGenerator(p, coreID, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllRegistryProfilesValid(t *testing.T) {
	for _, name := range Names() {
		p := testProfile(t, name)
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nonexistent"); err == nil {
		t.Fatal("Lookup of unknown benchmark succeeded")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := testProfile(t, "mcf")
	a := testGen(t, p, 0, 42)
	b := testGen(t, p, 0, 42)
	for i := 0; i < 10000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("streams diverged at event %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestCoresHaveDisjointAddressSpaces(t *testing.T) {
	p := testProfile(t, "mcf")
	a := testGen(t, p, 0, 42)
	b := testGen(t, p, 1, 42)
	seenA := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		seenA[a.Next().Line] = true
	}
	for i := 0; i < 20000; i++ {
		if seenA[b.Next().Line] {
			t.Fatal("cores 0 and 1 share a line address")
		}
	}
}

func TestMemRatioApproximatelyHonored(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "leela"} {
		p := testProfile(t, name)
		g := testGen(t, p, 0, 7)
		var instr, mem int64
		for i := 0; i < 200000; i++ {
			e := g.Next()
			instr += int64(e.Gap) + 1
			mem++
		}
		got := float64(mem) / float64(instr)
		if got < p.MemRatio*0.85 || got > p.MemRatio*1.15 {
			t.Errorf("%s: measured mem ratio %.3f, profile %.3f", name, got, p.MemRatio)
		}
	}
}

func TestWriteRatioApproximatelyHonored(t *testing.T) {
	p := testProfile(t, "lbm")
	g := testGen(t, p, 0, 9)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	got := float64(writes) / n
	if got < p.WriteRatio-0.05 || got > p.WriteRatio+0.05 {
		t.Errorf("lbm write ratio %.3f, want ~%.2f", got, p.WriteRatio)
	}
}

func TestStreamComponentNeverRevisits(t *testing.T) {
	// A pure-stream profile must have (almost) no line reuse beyond the
	// LineRepeat window.
	p := Profile{
		Name: "purestream", MemRatio: 0.4, WStream: 1,
		LineRepeat: 1,
	}
	g := testGen(t, p, 0, 3)
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		l := g.Next().Line
		if seen[l] {
			t.Fatalf("stream revisited line %#x", l)
		}
		seen[l] = true
	}
}

func TestScanComponentIsCyclic(t *testing.T) {
	p := Profile{
		Name: "purescan", MemRatio: 0.4, WScan: 1, ScanLines: 1000,
		LineRepeat: 1,
	}
	g := testGen(t, p, 0, 3)
	first := g.Next().Line
	for i := 1; i < 1000; i++ {
		g.Next()
	}
	if again := g.Next().Line; again != first {
		t.Fatalf("scan did not wrap: first %#x, after cycle %#x", first, again)
	}
}

func TestHotComponentBounded(t *testing.T) {
	p := Profile{
		Name: "purehot", MemRatio: 0.4, WHot: 1, HotLines: 256, LineRepeat: 1,
	}
	g := testGen(t, p, 0, 5)
	distinct := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		distinct[g.Next().Line] = true
	}
	if len(distinct) > 256 {
		t.Fatalf("hot set spilled: %d distinct lines > 256", len(distinct))
	}
	if len(distinct) < 250 {
		t.Fatalf("hot set under-covered: %d distinct lines", len(distinct))
	}
}

func TestLineRepeatProducesSpatialLocality(t *testing.T) {
	p := Profile{
		Name: "rep", MemRatio: 0.4, WRand: 1, RandLines: 1 << 20, LineRepeat: 4,
	}
	g := testGen(t, p, 0, 11)
	sameAsPrev := 0
	prev := g.Next().Line
	const n = 40000
	for i := 0; i < n; i++ {
		cur := g.Next().Line
		if cur == prev {
			sameAsPrev++
		}
		prev = cur
	}
	frac := float64(sameAsPrev) / n
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("repeat fraction %.3f, want ~0.75 for LineRepeat=4", frac)
	}
}

func TestHeteroMixesWellFormed(t *testing.T) {
	mixes := HeteroMixes()
	if len(mixes) != 21 {
		t.Fatalf("got %d mixes, want 21", len(mixes))
	}
	bins := map[MixBin]int{}
	for _, m := range mixes {
		if len(m.Benchmarks) != 8 {
			t.Errorf("%s: %d benchmarks, want 8", m.Name, len(m.Benchmarks))
		}
		for _, b := range m.Benchmarks {
			if _, err := Lookup(b); err != nil {
				t.Errorf("%s references unknown benchmark %s", m.Name, b)
			}
		}
		bins[m.Bin]++
	}
	if bins[BinLow] != 7 || bins[BinMedium] != 7 || bins[BinHigh] != 7 {
		t.Errorf("bin counts %v, want 7 each", bins)
	}
}

func TestSuiteLists(t *testing.T) {
	if n := len(SpecMemIntensive()); n != 15 {
		t.Errorf("SPEC list has %d entries, want 15", n)
	}
	if n := len(GapMemIntensive()); n != 5 {
		t.Errorf("GAP list has %d entries, want 5", n)
	}
	for _, name := range append(SpecMemIntensive(), GapMemIntensive()...) {
		if _, err := Lookup(name); err != nil {
			t.Errorf("listed benchmark %s not in registry", name)
		}
	}
	for _, name := range LLCFitting() {
		p := testProfile(t, name)
		if p.WHot < 0.85 {
			t.Errorf("LLC-fitting %s has WHot %.2f; should be hot-dominated", name, p.WHot)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "", MemRatio: 0.3, WHot: 1, HotLines: 10},
		{Name: "x", MemRatio: 0, WHot: 1, HotLines: 10},
		{Name: "x", MemRatio: 0.3},
		{Name: "x", MemRatio: 0.3, WHot: 1},
		{Name: "x", MemRatio: 0.3, WMed: 1},
		{Name: "x", MemRatio: 0.3, WScan: 1},
		{Name: "x", MemRatio: 0.3, WRand: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := testGen(b, testProfile(b, "mcf"), 0, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
