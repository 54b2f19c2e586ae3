package main

import (
	"strings"
	"testing"

	"mayacache/internal/bench"
)

// report builds a synthetic report with two micro rows (ns/access) and
// two macro rows (events/sec), one per design.
func report(microA, microB, macroA, macroB float64) *bench.Report {
	return &bench.Report{
		Micro: []bench.MicroResult{
			{Design: "A", NsPerAccess: microA},
			{Design: "B", NsPerAccess: microB},
		},
		Macro: []bench.MacroResult{
			{Design: "A", Parallelism: 1, EventsPerSec: macroA},
			{Design: "B", Parallelism: 1, EventsPerSec: macroB},
		},
	}
}

// TestGateReportsBothTiers checks that the -compare gate compares both
// tiers whatever the micro tier's verdict, names each tier in its output,
// and fails when either tier does. Design B's row is the one that
// regresses: twice the ns/access, or half the events/sec, of the
// baseline's, against an unchanged design A.
func TestGateReportsBothTiers(t *testing.T) {
	base := report(100, 100, 1e6, 1e6)
	for _, c := range []struct {
		name        string
		r           *bench.Report
		pass        bool
		microFailed bool
		macroFailed bool
	}{
		{"micro red, macro green", report(100, 200, 1e6, 1e6), false, true, false},
		{"both red", report(100, 200, 1e6, 5e5), false, true, true},
		{"both green", report(100, 100, 1e6, 1e6), true, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errw strings.Builder
			if got := gate(&out, &errw, c.r, base, "base.json"); got != c.pass {
				t.Errorf("gate returned %v, want %v", got, c.pass)
			}
			all := out.String() + errw.String()
			for _, tier := range []struct {
				name   string
				failed bool
			}{{"micro", c.microFailed}, {"macro", c.macroFailed}} {
				verdict, in := tier.name+" tier passed", out.String()
				if tier.failed {
					verdict, in = tier.name+" tier FAILED", errw.String()
				}
				if !strings.Contains(in, verdict) {
					t.Errorf("output lacks %q:\n%s", verdict, all)
				}
			}
			if c.macroFailed && !strings.Contains(errw.String(), "B: ") {
				t.Errorf("the macro failure does not name the regressed row:\n%s", all)
			}
		})
	}
}
