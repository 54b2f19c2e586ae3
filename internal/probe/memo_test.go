package probe

import (
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/prince"
)

// wrappedPrince is the PRINCE randomizer under another type: it indexes
// identically but is not the randomizer itself, so Front runs it memo-off.
type wrappedPrince struct{ *prince.Randomizer }

// TestResolveMemoBits pins the memo rule: Front memoizes the PRINCE
// randomizer, which a nil hasher selects, and nothing else.
func TestResolveMemoBits(t *testing.T) {
	const skews, sets, seed = 2, 64, 1
	cases := []struct {
		name string
		h    cachemodel.IndexHasher
		want bool
	}{
		{"nil", nil, true},
		{"prince", prince.NewRandomizer(skews, 6, seed), true},
		{"xor", cachemodel.NewXorHasher(skews, 6, seed), false},
		{"modulo", cachemodel.NewModuloHasher(6), false},
		{"wrapped prince", wrappedPrince{prince.NewRandomizer(skews, 6, seed)}, false},
	}
	for _, c := range cases {
		f := NewFront(nil, c.h, skews, sets, seed)
		if got := f.memo != nil; got != c.want {
			t.Errorf("%s: memo on = %v, want %v", c.name, got, c.want)
		}
		if want := frontBytes(c.h, skews) != 0; want != c.want {
			t.Errorf("%s: frontBytes sizes a memo = %v, want %v", c.name, want, c.want)
		}
	}
}

func TestMemoRoundTrip(t *testing.T) {
	const skews = 3
	m := NewMemo(nil, skews)
	dst := make([]int32, skews)

	if _, ok := m.Lookup(42, dst); ok {
		t.Fatal("hit in an empty memo")
	}
	src := []int32{7, 11, 13}
	m.Insert(42, src, 0x5a5a)
	fp, ok := m.Lookup(42, dst)
	if !ok {
		t.Fatal("miss after Insert")
	}
	if fp != 0x5a5a {
		t.Fatalf("fp = %#x, want 0x5a5a", fp)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	if h, mi := m.Counters(); h != 1 || mi != 1 {
		t.Fatalf("counters = (%d, %d), want (1, 1)", h, mi)
	}
	m.ResetCounters()
	if h, mi := m.Counters(); h != 0 || mi != 0 {
		t.Fatalf("counters after reset = (%d, %d)", h, mi)
	}
}

func TestMemoEpochInvalidation(t *testing.T) {
	const skews = 2
	m := NewMemo(nil, skews)
	dst := make([]int32, skews)

	m.Insert(9, []int32{1, 2}, 3)
	m.Invalidate()
	if _, ok := m.Lookup(9, dst); ok {
		t.Fatal("stale hit after Invalidate")
	}
	// Re-inserting at the new epoch works; the old epoch stays dead.
	m.Insert(9, []int32{4, 5}, 6)
	if fp, ok := m.Lookup(9, dst); !ok || fp != 6 || dst[0] != 4 || dst[1] != 5 {
		t.Fatalf("post-rekey entry: fp=%d ok=%v dst=%v", fp, ok, dst)
	}
	m.Reset()
	if _, ok := m.Lookup(9, dst); ok {
		t.Fatal("hit after Reset")
	}
	// Reset rewinds the epoch; slots wiped to the sentinel can never
	// match epoch zero again.
	m.Insert(9, []int32{7, 8}, 9)
	if fp, ok := m.Lookup(9, dst); !ok || fp != 9 {
		t.Fatalf("post-reset insert: fp=%d ok=%v", fp, ok)
	}
}

func TestMemoCollisionDisplaces(t *testing.T) {
	const skews = 1
	m := NewMemo(nil, skews)
	dst := make([]int32, skews)

	// Find two distinct lines that map to the same slot.
	base := uint64(1)
	slot := m.slot(base)
	other := base
	for l := base + 1; ; l++ {
		if m.slot(l) == slot {
			other = l
			break
		}
	}
	m.Insert(base, []int32{10}, 1)
	m.Insert(other, []int32{20}, 2)
	if _, ok := m.Lookup(base, dst); ok {
		t.Fatal("displaced entry still hit")
	}
	if fp, ok := m.Lookup(other, dst); !ok || fp != 2 || dst[0] != 20 {
		t.Fatalf("displacing entry: fp=%d ok=%v dst=%v", fp, ok, dst)
	}
}

func TestMemoArenaPlacement(t *testing.T) {
	const skews = 2
	a := NewArena(MemoBytes(skews))
	NewMemo(a, skews)
	if a.Overflows() != 0 {
		t.Fatalf("MemoBytes under-sized the arena: %d overflows", a.Overflows())
	}
}
