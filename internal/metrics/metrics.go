// Package metrics computes the evaluation metrics of the paper: weighted
// speedup for multi-programmed mixes (Snavely & Tullsen), the geometric
// mean of normalized performance, and small statistical helpers shared by
// the experiment drivers.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// WeightedSpeedup computes sum_i(ipcShared[i] / ipcAlone[i]). The two
// slices pair by core index.
func WeightedSpeedup(ipcShared, ipcAlone []float64) (float64, error) {
	if len(ipcShared) != len(ipcAlone) {
		return 0, fmt.Errorf("metrics: %d shared IPCs vs %d alone IPCs", len(ipcShared), len(ipcAlone))
	}
	ws := 0.0
	for i := range ipcShared {
		if ipcAlone[i] <= 0 {
			return 0, fmt.Errorf("metrics: core %d alone IPC %v must be positive", i, ipcAlone[i])
		}
		ws += ipcShared[i] / ipcAlone[i]
	}
	return ws, nil
}

// GeoMean returns the geometric mean of xs (which must all be positive).
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: GeoMean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("metrics: GeoMean requires positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (copying to avoid mutation).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// WelchT computes Welch's t-statistic between two samples; the occupancy
// attack uses it to decide when two key traces are distinguishable.
func WelchT(a, b []float64) float64 {
	if len(a) < 2 || len(b) < 2 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Stddev(a), Stddev(b)
	va, vb = va*va, vb*vb
	den := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	if den == 0 {
		switch {
		case ma == mb:
			return 0
		case ma > mb:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return (ma - mb) / den
}
