//go:build mayacheck

package mirage

import (
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/rng"
)

func smallCheckConfig(seed uint64) Config {
	return Config{
		SetsPerSkew: 16,
		Skews:       2,
		BaseWays:    4,
		ExtraWays:   3,
		Seed:        seed,
	}
}

func drive(c *Mirage, seed uint64, n int) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		typ := cachemodel.Read
		if r.Bool(0.2) {
			typ = cachemodel.Writeback
		}
		c.Access(cachemodel.Access{Line: r.Uint64n(1 << 12), Type: typ})
	}
}

func TestMayacheckCleanRunPasses(t *testing.T) {
	c := mustNew(smallCheckConfig(3))
	drive(c, 4, 3*auditPeriod)
	if err := c.Audit(); err != nil {
		t.Fatalf("clean run failed audit: %v", err)
	}
}

func TestMayacheckDetectsValidCntDrift(t *testing.T) {
	c := mustNew(smallCheckConfig(5))
	// Stop one access short of an audit, so no eviction can overwrite
	// the damaged tag first.
	drive(c, 6, auditPeriod-1)
	// Skew the valid/invalid-way accounting that load-aware skew
	// selection depends on: a tag's design entry empties behind the
	// store's back, so the store still counts it valid in its set while
	// the design holds nothing there.
	ti := 0
	for c.tags[ti].fptr < 0 {
		ti++
	}
	c.tags[ti] = tagEntry{fptr: -1}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("validCnt drift ran without an invariant violation")
		}
		if _, ok := r.(invariant.Violation); !ok {
			t.Fatalf("panic value %T (%v), want invariant.Violation", r, r)
		}
	}()
	drive(c, 7, 2*auditPeriod)
}
