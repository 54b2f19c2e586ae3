package analytic

import (
	"math"
	"testing"

	"mayacache/internal/cachemodel"
)

func TestSolveMayaMatchesPaper(t *testing.T) {
	d, err := Solve(9)
	if err != nil {
		t.Fatal(err)
	}
	// The paper measures Pr(n=0) ≈ 7.7e-7 from a trillion-iteration
	// simulation; the self-consistent solver must land there.
	if p0 := d.Pr(0); p0 < 6e-7 || p0 > 9e-7 {
		t.Errorf("Pr(0) = %.3g, want ~7.7e-7", p0)
	}
	if s := d.Sum(); math.Abs(s-1) > 1e-6 {
		t.Errorf("Sum = %v, want 1", s)
	}
	if m := d.Mean(); math.Abs(m-9) > 1e-3 {
		t.Errorf("Mean = %v, want 9", m)
	}
}

func TestSpillRatesMatchPaperSection4B(t *testing.T) {
	// "For W = 13, 14, 15, an SAE occurs every 10^8, 10^16, and 10^32
	// line installs" — match within an order of magnitude.
	d, err := Solve(9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ways int
		want float64
	}{
		{13, 1e8},
		{14, 1e16},
		{15, 4e32},
	}
	for _, c := range cases {
		got := d.InstallsPerSAE(c.ways)
		if got < c.want/30 || got > c.want*30 {
			t.Errorf("W=%d: installs/SAE = %.3g, paper %.1g", c.ways, got, c.want)
		}
	}
}

func TestTableIReuseWaySweep(t *testing.T) {
	// Table I, 6 invalid ways per skew column.
	cases := []struct {
		reuse int
		want  float64
	}{
		{1, 2e36},
		{3, 4e32},
		{5, 7e31},
		{7, 2e30},
	}
	for _, c := range cases {
		p := cachemodel.Maya
		p.ReuseWays = c.reuse
		got, err := InstallsPerSAE(p)
		if err != nil {
			t.Fatal(err)
		}
		// Within ~1.5 orders of magnitude of the paper's rounded values.
		if got < c.want/50 || got > c.want*50 {
			t.Errorf("reuse=%d: %.3g installs/SAE, paper %.1g", c.reuse, got, c.want)
		}
	}
}

func TestSecurityDecreasesWithAssociativity(t *testing.T) {
	// Table IV's trend: for fixed invalid ways, larger base associativity
	// means weaker security.
	prev := math.Inf(1)
	for _, pt := range []cachemodel.Row{
		{BaseWays: 3, ReuseWays: 1, InvalidWays: 6},
		{BaseWays: 6, ReuseWays: 3, InvalidWays: 6},
		{BaseWays: 12, ReuseWays: 6, InvalidWays: 6},
	} {
		v, err := InstallsPerSAE(pt)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Errorf("security did not decrease at %d base + %d reuse ways: %.3g >= %.3g", pt.BaseWays, pt.ReuseWays, v, prev)
		}
		prev = v
	}
}

func TestSecurityIncreasesWithInvalidWays(t *testing.T) {
	prev := 0.0
	for _, inv := range []int{4, 5, 6} {
		pt := cachemodel.Maya
		pt.InvalidWays = inv
		v, err := InstallsPerSAE(pt)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Errorf("security did not increase at %d invalid ways: %.3g <= %.3g", inv, v, prev)
		}
		prev = v
	}
}

func TestMirageModel(t *testing.T) {
	// The Mirage row: T=8, 14 ways/skew -> ~10^34 installs per SAE (the
	// paper's Table X value).
	got, err := InstallsPerSAE(cachemodel.Mirage)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1e33 || got > 1e36 {
		t.Errorf("Mirage installs/SAE = %.3g, paper ~1e34", got)
	}
}

func TestThresholdStrawman(t *testing.T) {
	// Section VI: the non-decoupled 75%-threshold design gets an SAE in
	// under 10^9 installs.
	d, err := Solve(12)
	if err != nil {
		t.Fatal(err)
	}
	got := d.InstallsPerSAE(16)
	if got > 1e9 {
		t.Errorf("threshold design installs/SAE = %.3g, paper says < 1e9", got)
	}
}

func TestSolveSeededMatchesSolve(t *testing.T) {
	solved, err := Solve(9)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := SolveSeeded(9, solved.Pr(0))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 16; n++ {
		a, b := solved.Pr(n), seeded.Pr(n)
		if a == 0 && b == 0 {
			continue
		}
		if math.Abs(a-b) > 1e-9*math.Max(a, b) {
			t.Errorf("Pr(%d): solve %.6g vs seeded %.6g", n, a, b)
		}
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(0); err == nil {
		t.Error("Solve(0) succeeded")
	}
	if _, err := SolveSeeded(9, 0); err == nil {
		t.Error("SolveSeeded(9, 0) succeeded")
	}
	if _, err := SolveSeeded(9, 1.5); err == nil {
		t.Error("SolveSeeded(9, 1.5) succeeded")
	}
}

func TestDoubleExponentialTail(t *testing.T) {
	// The spill probability must fall double-exponentially: each extra
	// way squares (roughly) the tail.
	d, err := Solve(9)
	if err != nil {
		t.Fatal(err)
	}
	p13, p14, p15 := d.Pr(14), d.Pr(15), d.Pr(16)
	if !(p14 < p13*p13*1e3 && p15 < p14*p14*1e3) {
		t.Errorf("tail not double-exponential: %.3g %.3g %.3g", p13, p14, p15)
	}
}

func TestYearsPerSAE(t *testing.T) {
	// 1 install/ns: 10^16 years is about 3.2e32 installs.
	y := YearsPerSAE(3.156e32)
	if y < 0.9e16 || y > 1.1e16 {
		t.Errorf("YearsPerSAE(3.156e32) = %.3g, want ~1e16", y)
	}
}

func TestFormatInstalls(t *testing.T) {
	if got := FormatInstalls(math.Inf(1)); got != "never" {
		t.Errorf("FormatInstalls(inf) = %q", got)
	}
	if got := FormatInstalls(4e32); got == "" {
		t.Error("empty format")
	}
}
