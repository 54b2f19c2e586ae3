package cachemodel_test

import (
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/probe"
	"mayacache/internal/rng"

	_ "mayacache/internal/baseline"
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

// scalarRef is the test-only reference for the skewed store's SWAR
// lookup: a shadow of every tag's line and SDID, kept from the fills and
// clears the test issues, and scanned way by way.
type scalarRef struct {
	h                 cachemodel.IndexHasher
	skews, sets, ways int
	lines             []uint64
	sdids             []uint8
	valid             []bool
}

func newScalarRef(h cachemodel.IndexHasher, g cachemodel.Geometry) *scalarRef {
	n := g.Skews * g.SetsPerSkew * g.WaysPerSkew
	return &scalarRef{
		h: h, skews: g.Skews, sets: g.SetsPerSkew, ways: g.WaysPerSkew,
		lines: make([]uint64, n), sdids: make([]uint8, n), valid: make([]bool, n),
	}
}

func (s *scalarRef) base(skew, set int) int { return (skew*s.sets + set) * s.ways }

// lookup is the per-way scan: skews in order, ways in order, first match.
func (s *scalarRef) lookup(line uint64, sdid uint8) int32 {
	for skew := 0; skew < s.skews; skew++ {
		base := s.base(skew, s.h.Index(skew, line))
		for i := base; i < base+s.ways; i++ {
			if s.valid[i] && s.lines[i] == line && s.sdids[i] == sdid {
				return int32(i)
			}
		}
	}
	return -1
}

// validIn counts the valid ways of (skew, set).
func (s *scalarRef) validIn(skew, set int) int {
	n := 0
	for _, v := range s.valid[s.base(skew, set) : s.base(skew, set)+s.ways] {
		if v {
			n++
		}
	}
	return n
}

// freeWay is the first invalid way of (skew, set), or -1.
func (s *scalarRef) freeWay(skew, set int) int32 {
	base := s.base(skew, set)
	for i := base; i < base+s.ways; i++ {
		if !s.valid[i] {
			return int32(i)
		}
	}
	return -1
}

// TestSWARMatchesScalar drives the skewed store (probe.Skewed, the one
// lookup path of Maya and Mirage) at the tag geometry of every registered
// design and checks each step against the scalar reference: every lookup
// returns the way the per-way scan finds, load-aware skew selection picks
// a least-loaded candidate set and reports a free way exactly when it has
// one, and FreeWay returns the first invalid way. Designs without a skewed
// store (Baseline and the CEASER family) lend their shapes: one skew of
// 16 ways, two of 8, sixteen of 1. At the end every tag's line, SDID and
// validity must match the shadow, and the store's Audit its probe words,
// valid counts and invalid-way masks.
func TestSWARMatchesScalar(t *testing.T) {
	for _, design := range cachemodel.Registered() {
		t.Run(design.Name, func(t *testing.T) {
			const seed = 7
			llc, err := design.Build(cachemodel.BuildOptions{Cores: 1, SetsPerCore: 256, Seed: seed, FastHash: true})
			if err != nil {
				t.Fatal(err)
			}
			g := llc.Geometry()
			h := cachemodel.NewXorHasher(g.Skews, cachemodel.Log2(g.SetsPerSkew), seed)
			st := probe.NewSkewed(nil, design.Name, h, g.Skews, g.SetsPerSkew, g.WaysPerSkew, 0, seed)
			ref := newScalarRef(h, g)
			fill := func(ti int32, line uint64, sdid uint8) {
				st.Fill(ti, line, sdid)
				ref.lines[ti], ref.sdids[ti], ref.valid[ti] = line, sdid, true
			}
			evict := func(ti int32) {
				st.Clear(ti)
				ref.lines[ti], ref.sdids[ti], ref.valid[ti] = 0, 0, false
			}

			// Footprint ~4x the capacity in both SDIDs, so lookups meet
			// the same line under the other SDID, fingerprint collisions
			// and full sets.
			r, tie := rng.New(99), rng.New(seed)
			for i := 0; i < 400_000; i++ {
				line := uint64(r.Intn(16384)) * 64
				sdid := uint8(r.Intn(2))
				got, want := st.Lookup(line, sdid), ref.lookup(line, sdid)
				if got != want {
					t.Fatalf("step %d: Lookup(%#x, %d) = %d, scalar scan %d", i, line, sdid, got, want)
				}
				if got >= 0 {
					if r.Intn(4) == 0 {
						evict(got) // a global eviction or flush
					}
					continue
				}
				skew, set, ok := st.ChooseSkew(tie)
				chosen := ref.validIn(skew, set)
				for sk := 0; sk < g.Skews; sk++ {
					if n := ref.validIn(sk, h.Index(sk, line)); n < chosen {
						t.Fatalf("step %d: ChooseSkew took a set with %d valid ways over one with %d", i, chosen, n)
					}
				}
				if set != h.Index(skew, line) || ok != (chosen < g.WaysPerSkew) {
					t.Fatalf("step %d: ChooseSkew = (%d, %d, %v), line maps to set %d, %d valid",
						i, skew, set, ok, h.Index(skew, line), chosen)
				}
				if !ok {
					evict(st.Base(skew, set) + int32(r.Intn(g.WaysPerSkew))) // an SAE
				}
				ti := st.FreeWay(skew, set)
				if want := ref.freeWay(skew, set); ti != want {
					t.Fatalf("step %d: FreeWay = %d, scalar scan %d", i, ti, want)
				}
				fill(ti, line, sdid)
			}
			for ti := range int32(len(ref.lines)) {
				if st.Valid(ti) != ref.valid[ti] || st.Line(ti) != ref.lines[ti] || st.SDID(ti) != ref.sdids[ti] {
					t.Fatalf("tag %d: store holds (%#x, %d, valid %v), shadow (%#x, %d, valid %v)", ti,
						st.Line(ti), st.SDID(ti), st.Valid(ti), ref.lines[ti], ref.sdids[ti], ref.valid[ti])
				}
			}
			if err := st.Audit(func(int) int32 { return -1 }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegistryMemoFollowsHasher pins the memo rule at the registry: no
// FastHash build of any design records memo traffic, and the PRINCE
// builds of Maya, Mirage and the CEASER family do.
func TestRegistryMemoFollowsHasher(t *testing.T) {
	for _, design := range cachemodel.Registered() {
		t.Run(design.Name, func(t *testing.T) {
			for _, fast := range []bool{true, false} {
				llc, err := design.Build(cachemodel.BuildOptions{Cores: 1, SetsPerCore: 64, Seed: 3, FastHash: fast})
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(11)
				for i := 0; i < 4000; i++ {
					llc.Access(cachemodel.Access{Line: uint64(r.Intn(512)), Type: cachemodel.Read})
				}
				s := llc.StatsSnapshot()
				traffic := s.MemoHits + s.MemoMisses
				wantMemo := !fast && design.Family != cachemodel.FamilyBaseline
				if (traffic != 0) != wantMemo {
					t.Errorf("FastHash=%v: memo traffic %d hits + %d misses, want memo on = %v",
						fast, s.MemoHits, s.MemoMisses, wantMemo)
				}
				if wantMemo && s.MemoHits == 0 {
					t.Errorf("PRINCE build recorded no memo hits on a reused footprint (%d misses)", s.MemoMisses)
				}
			}
		})
	}
}
