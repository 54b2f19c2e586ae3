//go:build mayacheck

package core

import (
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/invariant"
	"mayacache/internal/rng"
)

// smallCheckConfig is a tiny geometry that exercises evictions quickly.
func smallCheckConfig(seed uint64) Config {
	return Config{
		SetsPerSkew: 16,
		Skews:       2,
		BaseWays:    4,
		ReuseWays:   2,
		InvalidWays: 2,
		Seed:        seed,
	}
}

// expectViolation runs f and fails the test unless it panics with an
// invariant.Violation.
func expectViolation(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted cache ran without an invariant violation")
		}
		if _, ok := r.(invariant.Violation); !ok {
			t.Fatalf("panic value %T (%v), want invariant.Violation", r, r)
		}
	}()
	f()
}

// drive pushes enough accesses through m to cross an audit boundary.
func drive(m *Maya, seed uint64, n int) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		typ := cachemodel.Read
		if r.Bool(0.2) {
			typ = cachemodel.Writeback
		}
		m.Access(cachemodel.Access{Line: r.Uint64n(1 << 12), Type: typ})
	}
}

func TestMayacheckCleanRunPasses(t *testing.T) {
	m := mustNew(smallCheckConfig(7))
	drive(m, 8, 3*auditPeriod)
	if err := m.Audit(); err != nil {
		t.Fatalf("clean run failed audit: %v", err)
	}
}

// firstP1 returns the first priority-1 tag at or after tag from.
func firstP1(t *testing.T, m *Maya, from int) int {
	t.Helper()
	for ti := from; ti < len(m.tags); ti++ {
		if m.tags[ti].state == stP1 {
			return ti
		}
	}
	t.Fatal("no data entries populated")
	return -1
}

func TestMayacheckDetectsBrokenRPTR(t *testing.T) {
	m := mustNew(smallCheckConfig(11))
	// Stop one access short of an audit: global data eviction would heal
	// the damage below if it drew the slot first.
	drive(m, 12, auditPeriod-1)
	// Break the bijection: point a live tag at another tag's data slot,
	// whose RPTR does not name it.
	ti := firstP1(t, m, 0)
	tj := firstP1(t, m, ti+1)
	m.tags[ti].fptr = m.tags[tj].fptr
	expectViolation(t, func() { drive(m, 13, 2*auditPeriod) })
}

func TestMayacheckDetectsOccupancySkew(t *testing.T) {
	m := mustNew(smallCheckConfig(17))
	drive(m, 18, auditPeriod-1)
	// A priority-1 tag forgets its data slot and drops to priority-0: the
	// slot stays in use with no owner, so the priority-1 population no
	// longer matches data-store occupancy.
	ti := firstP1(t, m, 0)
	m.tags[ti].state = stP0
	m.tags[ti].fptr = -1
	m.addP0(int32(ti))
	expectViolation(t, func() { drive(m, 19, 2*auditPeriod) })
}
