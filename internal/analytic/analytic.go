// Package analytic implements the paper's Birth-Death Markov chain model
// of bucket occupancy (Section IV-B, Equations 1-6), generalized to any
// average bucket population T (base + reuse ways per skew for Maya; base
// ways for Mirage).
//
// A bucket's ball count rises when a load-aware throw lands in it
// (Equation 2) and falls when a global random eviction selects one of its
// balls. For Maya only priority-0 balls are evictable, but priority-0
// balls are an r/T fraction of every bucket's expected population and the
// per-ball selection probability scales inversely with the global
// priority-0 count, so the r's cancel and the downward rate is
// (N+1)·Pr(n=N+1)/T for every design with global random eviction —
// Equation 4 with T = 9.
//
// Setting up the detailed-balance equation (Equation 1) yields the
// recursion of Equation 5:
//
//	Pr(n=N+1) = T/(N+1) · (Pr(n=N)² + 2·Pr(n=N)·Pr(n>N))
//
// The paper seeds the recursion with the experimentally measured Pr(n=0).
// This package additionally provides a self-consistent solver: Pr(n=0) is
// bisected until the distribution sums to one, removing the need for a
// trillion-iteration simulation while reproducing its values (tested
// against the paper's Pr(n=0) ≈ 7.7e-7 and the 10^8/10^16/10^32 spill
// rates for 13/14/15 ways).
package analytic

import (
	"fmt"
	"math"

	"mayacache/internal/cachemodel"
)

// maxN bounds the recursion; probabilities decay double-exponentially, so
// anything beyond ~4T is astronomically small.
const maxN = 96

// Distribution is a solved bucket-occupancy distribution.
type Distribution struct {
	// T is the average balls per bucket.
	T float64
	// P[n] is Pr(bucket holds n balls); indices above the computed range
	// are effectively zero (stored as exact values until they underflow
	// float64, which happens around n = 3T).
	P []float64
}

// Solve finds the self-consistent occupancy distribution for average
// population T (> 0) by bisecting Pr(n=0).
func Solve(T float64) (*Distribution, error) {
	if T <= 0 {
		return nil, fmt.Errorf("analytic: T must be positive, got %v", T)
	}
	// Pr(0) is at most 1 and decreases as T grows; bracket generously.
	lo, hi := 0.0, 1.0
	var best []float64
	for iter := 0; iter < 200; iter++ {
		p0 := (lo + hi) / 2
		p, sum := expand(T, p0)
		if sum > 1 {
			hi = p0
		} else {
			lo = p0
			best = p
		}
	}
	if best == nil {
		// Even the smallest bracket overshot; use the midpoint.
		best, _ = expand(T, (lo+hi)/2)
	}
	return &Distribution{T: T, P: best}, nil
}

// SolveSeeded expands the recursion from a given Pr(n=0) (the paper's
// method, seeded from simulation).
func SolveSeeded(T, pr0 float64) (*Distribution, error) {
	if T <= 0 || pr0 <= 0 || pr0 >= 1 {
		return nil, fmt.Errorf("analytic: bad parameters T=%v pr0=%v", T, pr0)
	}
	p, _ := expand(T, pr0)
	return &Distribution{T: T, P: p}, nil
}

// expand runs the Equation 5 recursion from Pr(0) = p0 and returns the
// sequence plus its sum. Pr(n>N) is computed as 1 - cumulative, floored at
// zero; once Pr(n=N) < 0.01 the Equation 6 approximation (dropping the
// tail term) takes over, exactly as in the paper.
func expand(T, p0 float64) ([]float64, float64) {
	p := make([]float64, maxN+1)
	p[0] = p0
	sum := p0
	for n := 0; n < maxN; n++ {
		tail := 1 - sum
		if tail < 0 {
			tail = 0
		}
		var next float64
		// Equation 6 (dropping the tail term) applies only past the
		// distribution's peak, where Pr(n>N) has shrunk below Pr(n=N)'s
		// scale; before the peak the 2·Pr(n=N)·Pr(n>N) term dominates.
		// The tail < 0.01 guard also shields against 1-sum cancelling to
		// float64 noise once the cumulative saturates.
		if p[n] >= 0.01 || tail >= 1e-9 {
			next = T / float64(n+1) * (p[n]*p[n] + 2*p[n]*tail)
		} else {
			next = T / float64(n+1) * (p[n] * p[n])
		}
		if next > 1 || math.IsInf(next, 1) || math.IsNaN(next) {
			// No probability exceeds one: p0 was too large. Signal an
			// overshoot so the bisection lowers it.
			return p, math.Inf(1)
		}
		p[n+1] = next
		sum += next
		if next == 0 {
			break
		}
	}
	return p, sum
}

// Pr returns Pr(n = N), or zero outside the computed range.
func (d *Distribution) Pr(n int) float64 {
	if n < 0 || n >= len(d.P) {
		return 0
	}
	return d.P[n]
}

// SpillProbability returns the probability that a ball throw causes a
// bucket spill for a design with W ways per skew: Pr(n = W+1) per the
// paper's Section IV-B.
func (d *Distribution) SpillProbability(waysPerSkew int) float64 {
	return d.Pr(waysPerSkew + 1)
}

// InstallsPerSAE returns the expected number of line installs between
// set-associative evictions for a design with W ways per skew.
func (d *Distribution) InstallsPerSAE(waysPerSkew int) float64 {
	p := d.SpillProbability(waysPerSkew)
	if p == 0 {
		return math.Inf(1)
	}
	return 1 / p
}

// Mean returns the distribution's mean occupancy (should be close to T).
func (d *Distribution) Mean() float64 {
	m := 0.0
	for n, pr := range d.P {
		m += float64(n) * pr
	}
	return m
}

// Sum returns the total probability mass (should be close to 1).
func (d *Distribution) Sum() float64 {
	s := 0.0
	for _, pr := range d.P {
		s += pr
	}
	return s
}

// YearsPerSAE converts installs-per-SAE to years assuming one fill per
// nanosecond, the paper's (optimistic for the attacker) conversion.
func YearsPerSAE(installs float64) float64 {
	const nsPerYear = 365.25 * 24 * 3600 * 1e9
	return installs / nsPerYear
}

// SolveRow solves the model for design row r: its steady state holds T =
// base + reuse ways of balls per bucket.
func SolveRow(r cachemodel.Row) (*Distribution, error) {
	return Solve(float64(r.BaseWays + r.ReuseWays))
}

// InstallsPerSAE returns design row r's expected installs between SAEs: a
// spill needs a bucket past all of its ways per skew.
func InstallsPerSAE(r cachemodel.Row) (float64, error) {
	d, err := SolveRow(r)
	if err != nil {
		return 0, err
	}
	return d.InstallsPerSAE(r.Ways()), nil
}

// FormatInstalls renders an installs-per-SAE value the way the paper's
// tables do ("4e32 (1e16 yrs)").
func FormatInstalls(installs float64) string {
	if math.IsInf(installs, 1) {
		return "never"
	}
	years := YearsPerSAE(installs)
	switch {
	case years >= 1:
		return fmt.Sprintf("%.0e installs (%.0e yrs)", installs, years)
	case years*365.25 >= 1:
		return fmt.Sprintf("%.0e installs (%.0f days)", installs, years*365.25)
	case years*365.25*24*3600 >= 1:
		return fmt.Sprintf("%.0e installs (%.0f s)", installs, years*365.25*24*3600)
	default:
		return fmt.Sprintf("%.0e installs (%.0e s)", installs, years*365.25*24*3600)
	}
}
