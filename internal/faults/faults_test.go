package faults

import (
	"errors"
	"testing"

	"mayacache/internal/harness"
	"mayacache/internal/rng"
	"mayacache/internal/trace"
)

func testGen(t *testing.T) trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(trace.MustLookup("mcf"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPanicAfterFiresExactlyAtN(t *testing.T) {
	g := PanicAfter(testGen(t), 5)
	for i := 0; i < 5; i++ {
		g.Next()
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic at event 5")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInjected) {
			t.Fatalf("panic value %v does not wrap ErrInjected", r)
		}
	}()
	g.Next()
}

func TestCorruptLinePerturbsStreamSilently(t *testing.T) {
	clean := testGen(t)
	dirty := CorruptLine(testGen(t), 3, 0xdeadbeef)
	for i := 0; i < 3; i++ {
		c, d := clean.Next(), dirty.Next()
		if c != d {
			t.Fatalf("event %d corrupted before index 3", i)
		}
	}
	for i := 3; i < 10; i++ {
		c, d := clean.Next(), dirty.Next()
		if d.Line != c.Line^0xdeadbeef {
			t.Fatalf("event %d: line %x, want %x", i, d.Line, c.Line^0xdeadbeef)
		}
		if d.Gap != c.Gap || d.Write != c.Write {
			t.Fatalf("event %d: non-line fields perturbed", i)
		}
	}
}

func TestCountdownBecomesClean(t *testing.T) {
	c := NewCountdown("trace-read", 2)
	for i := 0; i < 2; i++ {
		err := c.Fire()
		if err == nil || !harness.IsTransient(err) || !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d: %v, want transient injected error", i, err)
		}
	}
	if err := c.Fire(); err != nil {
		t.Fatalf("countdown exhausted but still failing: %v", err)
	}
}

func TestFailingRandPanicsOnDrawN(t *testing.T) {
	f := &FailingRand{R: rng.New(1), At: 2}
	f.Uint64()
	f.Uint64()
	defer func() {
		if recover() == nil {
			t.Fatal("draw 2 did not fail")
		}
	}()
	f.Uint64()
}

func TestPlanIsDeterministicAndSiteKeyed(t *testing.T) {
	a := NewPlan(42, 0.5)
	b := NewPlan(42, 0.5)
	fired := 0
	for i := uint64(0); i < 200; i++ {
		if a.Fire("siteA", i) != b.Fire("siteA", i) {
			t.Fatal("same seed, different decisions")
		}
		if a.Fire("siteA", i) {
			fired++
		}
	}
	if fired < 60 || fired > 140 {
		t.Fatalf("p=0.5 fired %d/200", fired)
	}
	diff := 0
	for i := uint64(0); i < 200; i++ {
		if a.Fire("siteA", i) != a.Fire("siteB", i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("sites share a decision stream")
	}
}

func TestFlipTagBitNeedsAHook(t *testing.T) {
	if _, ok := FlipTagBit(struct{}{}, 0, 0); ok {
		t.Fatal("hookless value reported corruptible")
	}
}
