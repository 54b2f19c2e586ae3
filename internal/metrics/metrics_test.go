package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1, 2}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws-1.5) > 1e-12 {
		t.Fatalf("WS = %v, want 1.5", ws)
	}
}

func TestWeightedSpeedupErrors(t *testing.T) {
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Error("zero alone IPC accepted")
	}
}

func TestGeoMean(t *testing.T) {
	gm, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gm-2) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 2", gm)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty GeoMean accepted")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative GeoMean accepted")
	}
}

func TestGeoMeanBelowMax(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a%1000)+1, float64(b%1000)+1
		gm, err := GeoMean([]float64{x, y})
		if err != nil {
			return false
		}
		return gm <= math.Max(x, y)+1e-9 && gm >= math.Min(x, y)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGeoMeanMatchesNaive checks the log-sum implementation against the
// textbook formula (x1*x2*...*xn)^(1/n) on inputs small enough that the
// naive product cannot overflow.
func TestGeoMeanMatchesNaive(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		xs := make([]float64, len(raw))
		prod := 1.0
		for i, r := range raw {
			xs[i] = float64(r%1000)/100 + 0.01 // (0, 10]
			prod *= xs[i]
		}
		naive := math.Pow(prod, 1/float64(len(xs)))
		gm, err := GeoMean(xs)
		if err != nil {
			return false
		}
		return math.Abs(gm-naive) <= 1e-9*math.Max(gm, naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGeoMeanLongVector guards the reason GeoMean sums logs instead of
// multiplying: over a long vector of large (or tiny) values the naive
// product overflows to +Inf (or underflows to 0) while the true geometric
// mean is perfectly representable.
func TestGeoMeanLongVector(t *testing.T) {
	big := make([]float64, 1000)
	tiny := make([]float64, 1000)
	naiveBig, naiveTiny := 1.0, 1.0
	for i := range big {
		big[i] = 1e300
		tiny[i] = 1e-300
		naiveBig *= big[i]
		naiveTiny *= tiny[i]
	}
	if !math.IsInf(naiveBig, 1) || naiveTiny != 0 {
		t.Fatalf("naive products did not overflow/underflow (big=%v tiny=%v); test premise broken", naiveBig, naiveTiny)
	}
	gm, err := GeoMean(big)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gm-1e300) > 1e-9*1e300 {
		t.Errorf("GeoMean(1000x 1e300) = %v, want 1e300", gm)
	}
	gm, err = GeoMean(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gm-1e-300) > 1e-9*1e-300 {
		t.Errorf("GeoMean(1000x 1e-300) = %v, want 1e-300", gm)
	}
}

func TestMeanMedianStddev(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if m := Mean(xs); math.Abs(m-22) > 1e-12 {
		t.Errorf("Mean = %v, want 22", m)
	}
	if m := Median(xs); m != 3 {
		t.Errorf("Median = %v, want 3", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even Median = %v, want 2.5", m)
	}
	if s := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(s-2.138) > 0.01 {
		t.Errorf("Stddev = %v, want ~2.14", s)
	}
	if Stddev([]float64{1}) != 0 {
		t.Error("Stddev of singleton not 0")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestWelchT(t *testing.T) {
	a := []float64{10, 11, 9, 10, 10}
	b := []float64{20, 21, 19, 20, 20}
	if tt := WelchT(a, b); tt > -10 {
		t.Errorf("clearly separated samples give t = %v", tt)
	}
	same := []float64{5, 5, 5}
	if tt := WelchT(same, same); tt != 0 {
		t.Errorf("identical degenerate samples give t = %v, want 0", tt)
	}
	if tt := WelchT([]float64{1}, []float64{2}); tt != 0 {
		t.Errorf("undersized samples give t = %v, want 0", tt)
	}
	if tt := WelchT([]float64{5, 5, 5}, []float64{6, 6, 6}); !math.IsInf(tt, -1) {
		t.Errorf("zero-variance separated samples give t = %v, want -inf", tt)
	}
}
