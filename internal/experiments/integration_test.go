package experiments

import (
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// Cross-design invariants: properties every LLC in the repository must
// share, exercised through the same interface the simulator uses.

func allLLCs(t testing.TB, seed uint64) map[Design]cachemodel.LLC {
	out := map[Design]cachemodel.LLC{}
	for _, d := range []Design{DesignBaseline, DesignMirage, DesignMirageLite, DesignMaya, DesignMayaISO} {
		out[d] = mustBuild(t, d, LLCOptions{Cores: 1, Seed: seed, FastHash: true})
	}
	return out
}

func TestAllDesignsConvergeOnFittingWorkingSet(t *testing.T) {
	// 1000 hot lines fit every design's data store; after warmup every
	// design must serve them at near-100% hit rate.
	for d, c := range allLLCs(t, 1) {
		r := rng.New(uint64(len(d)))
		for i := 0; i < 60_000; i++ {
			c.Access(cachemodel.Access{Line: uint64(r.Intn(1000)), Type: cachemodel.Read})
		}
		c.ResetStats()
		for i := 0; i < 20_000; i++ {
			c.Access(cachemodel.Access{Line: uint64(r.Intn(1000)), Type: cachemodel.Read})
		}
		if st := c.StatsSnapshot(); st.DataHitRate() < 0.98 {
			t.Errorf("%s: hit rate %.3f on a trivially fitting set", d, st.DataHitRate())
		}
	}
}

func TestSecureDesignsSeeNoSAEsUnderLoad(t *testing.T) {
	for _, d := range []Design{DesignMirage, DesignMaya, DesignMayaISO} {
		c := mustBuild(t, d, LLCOptions{Cores: 1, Seed: 2, FastHash: true})
		r := rng.New(7)
		for i := 0; i < 500_000; i++ {
			typ := cachemodel.Read
			if r.Bool(0.3) {
				typ = cachemodel.Writeback
			}
			c.Access(cachemodel.Access{Line: uint64(r.Uint32()), Type: typ})
		}
		if s := c.StatsSnapshot().SAEs; s != 0 {
			t.Errorf("%s: %d SAEs under random load", d, s)
		}
	}
}

func TestBaselineSeesSAEsUnderLoad(t *testing.T) {
	c := mustBuild(t, DesignBaseline, LLCOptions{Cores: 1, Seed: 3})
	r := rng.New(9)
	for i := 0; i < 200_000; i++ {
		c.Access(cachemodel.Access{Line: uint64(r.Uint32()), Type: cachemodel.Read})
	}
	if c.StatsSnapshot().SAEs == 0 {
		t.Fatal("conventional cache logged no SAEs under pressure")
	}
}

func TestAllDesignsFlushConsistency(t *testing.T) {
	for d, c := range allLLCs(t, 4) {
		c.Access(cachemodel.Access{Line: 5, Type: cachemodel.Read, SDID: 1})
		c.Access(cachemodel.Access{Line: 5, Type: cachemodel.Read, SDID: 1}) // promote in Maya
		if ok := c.Flush(5, 1); !ok {
			t.Errorf("%s: flush of resident line failed", d)
			continue
		}
		if tag, _ := c.Probe(5, 1); tag {
			t.Errorf("%s: line resident after flush", d)
		}
		if c.Flush(5, 1) {
			t.Errorf("%s: double flush succeeded", d)
		}
	}
}

func TestAllDesignsDirtyWritebackEventually(t *testing.T) {
	for d, c := range allLLCs(t, 5) {
		c.Access(cachemodel.Access{Line: 9, Type: cachemodel.Writeback})
		r := rng.New(11)
		saw := false
		for i := 0; i < 3_000_000 && !saw; i++ {
			res := c.Access(cachemodel.Access{Line: uint64(r.Uint32()), Type: cachemodel.Writeback})
			for _, w := range res.Writebacks {
				if w.Line == 9 {
					saw = true
				}
			}
		}
		if !saw {
			t.Errorf("%s: dirty line never written back to memory", d)
		}
	}
}

func TestLookupPenalties(t *testing.T) {
	want := map[Design]int{
		DesignBaseline: 0, DesignMirage: 4, DesignMirageLite: 4,
		DesignMaya: 4, DesignMayaISO: 4,
	}
	for d, c := range allLLCs(t, 6) {
		if p := c.LookupPenalty(); p != want[d] {
			t.Errorf("%s: LookupPenalty %d, want %d", d, p, want[d])
		}
	}
}
