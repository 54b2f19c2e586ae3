package rng

import (
	"math/bits"
	"testing"
)

// lemire is Lemire's method written out independently of Uint64n and
// Bound: draw until the low word of x*n is at least 2^64 mod n.
func lemire(r *Rand, n uint64) uint64 {
	thresh := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

// drawBound draws from b the way the bucket kernel does.
func drawBound(r *Rand, b Bound) uint64 {
	for {
		if v, ok := b.Map(r.Uint64()); ok {
			return v
		}
	}
}

// TestBoundMatchesUint64n is the draw contract: from random states, a
// precomputed Bound returns exactly what Uint64n returns and leaves the
// generator in the same state, and both agree with an independent
// Lemire. The rejection-heavy bounds (up to half of all draws rejected)
// come before 2^64-1, whose rejection region is one value.
func TestBoundMatchesUint64n(t *testing.T) {
	fixed := []uint64{1, 2, 3, 7, 10, 16, 17, 1 << 15, 16385, 32768, 3<<62 + 1, 1<<63 + 1, 1<<63 + 12345}
	src := New(2024)
	for i := 0; i < 2000; i++ {
		st := State{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
		ns := append([]uint64(nil), fixed...)
		// A random bound of random width, then one in the rejection-heavy
		// top half of the range, then 2^64-1.
		ns = append(ns, src.Uint64()>>src.Uint64n(64)|1, 1<<63|src.Uint64(), ^uint64(0))
		for _, n := range ns {
			var a, b, c Rand
			if err := a.Restore(st); err != nil {
				t.Fatal(err)
			}
			b, c = a, a
			want := lemire(&a, n)
			if got := b.Uint64n(n); got != want || b.Save() != a.Save() {
				t.Fatalf("state %#x n=%d: Uint64n = %d (state %#x), Lemire %d (state %#x)", st, n, got, b.Save(), want, a.Save())
			}
			if got := drawBound(&c, NewBound(n)); got != want || c.Save() != a.Save() {
				t.Fatalf("state %#x n=%d: Bound = %d (state %#x), Lemire %d (state %#x)", st, n, got, c.Save(), want, a.Save())
			}
		}
	}
}

// TestNextMatchesUint64 checks the value-form step: Next returns what
// Uint64 returns, advances to the same state, and leaves its receiver
// untouched.
func TestNextMatchesUint64(t *testing.T) {
	r, g := New(9), *New(9)
	for i := 0; i < 1000; i++ {
		before := g
		x, next := g.Next()
		if g != before {
			t.Fatal("Next modified its receiver")
		}
		g = next
		if want := r.Uint64(); x != want || g.Save() != r.Save() {
			t.Fatalf("draw %d: Next = %#x, Uint64 = %#x", i, x, want)
		}
	}
}

func TestNewBoundPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBound(0) did not panic")
		}
	}()
	NewBound(0)
}
