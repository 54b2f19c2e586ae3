package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func macroRow(design string, par int, eps float64) MacroResult {
	return MacroResult{Design: design, Parallelism: par, EventsPerSec: eps}
}

func TestCompareMacroUniformSlowdownPasses(t *testing.T) {
	base := &Report{Macro: []MacroResult{
		macroRow("Maya", 1, 10e6), macroRow("Mirage", 1, 8e6), macroRow("Baseline", 1, 12e6),
	}}
	// The whole machine got 40% slower: every row moves together, the
	// geomean normalization cancels it, the gate stays green.
	cur := &Report{Macro: []MacroResult{
		macroRow("Maya", 1, 6e6), macroRow("Mirage", 1, 4.8e6), macroRow("Baseline", 1, 7.2e6),
	}}
	if err := CompareMacro(cur, base, 0.10); err != nil {
		t.Fatalf("uniform slowdown should pass: %v", err)
	}
}

func TestCompareMacroRelativeRegressionFails(t *testing.T) {
	base := &Report{Macro: []MacroResult{
		macroRow("Maya", 1, 10e6), macroRow("Mirage", 1, 10e6), macroRow("Baseline", 1, 10e6), macroRow("CEASER-S", 1, 10e6),
	}}
	// Three rows hold steady, one loses 30%: that is a real per-design
	// regression, not machine noise.
	cur := &Report{Macro: []MacroResult{
		macroRow("Maya", 1, 7e6), macroRow("Mirage", 1, 10e6), macroRow("Baseline", 1, 10e6), macroRow("CEASER-S", 1, 10e6),
	}}
	err := CompareMacro(cur, base, 0.10)
	if err == nil {
		t.Fatal("single-design regression should fail the gate")
	}
	if !strings.Contains(err.Error(), "Maya") {
		t.Fatalf("error should name the regressed design: %v", err)
	}
}

func TestCompareMacroSkipsUnmatchedRows(t *testing.T) {
	base := &Report{Macro: []MacroResult{macroRow("Maya", 1, 10e6)}}
	// A new design and a row of another parallelism have no baseline
	// counterpart; the gate must ignore them instead of erroring.
	cur := &Report{Macro: []MacroResult{
		macroRow("Maya", 1, 10e6), macroRow("NewDesign", 1, 1), macroRow("Maya", 8, 1),
	}}
	if err := CompareMacro(cur, base, 0.10); err != nil {
		t.Fatalf("unmatched rows must be skipped: %v", err)
	}
}

func TestCompareMacroEmptyIntersection(t *testing.T) {
	if err := CompareMacro(&Report{}, &Report{}, 0.10); err != nil {
		t.Fatalf("empty reports must pass vacuously: %v", err)
	}
}

// TestCompareMacroNoMatchFails: a baseline whose rows match none of this
// run's (here the design names lowercased) must fail the macro tier, not
// pass it for want of anything to compare.
func TestCompareMacroNoMatchFails(t *testing.T) {
	base := &Report{Macro: []MacroResult{macroRow("maya", 1, 10e6), macroRow("mirage", 1, 10e6)}}
	cur := &Report{Macro: []MacroResult{macroRow("Maya", 1, 10e6), macroRow("Mirage", 1, 10e6)}}
	err := CompareMacro(cur, base, 0.10)
	if err == nil || !strings.Contains(err.Error(), "macro") {
		t.Fatalf("unmatched macro tier must fail naming the tier, got %v", err)
	}
}

// TestCompareMicroNoMatchFails: an empty baseline ({}) must fail the
// micro tier of a run that has micro rows.
func TestCompareMicroNoMatchFails(t *testing.T) {
	cur := &Report{Micro: []MicroResult{
		{Design: "Maya", NsPerAccess: 50}, {Design: "Maya", RealHash: true, NsPerAccess: 80},
	}}
	err := CompareMicro(cur, &Report{}, 0.10)
	if err == nil || !strings.Contains(err.Error(), "micro") {
		t.Fatalf("unmatched micro tier must fail naming the tier, got %v", err)
	}
	if err := CompareMicro(&Report{}, &Report{}, 0.10); err != nil {
		t.Fatalf("a run with no micro rows must pass vacuously: %v", err)
	}
}

// TestCompareMacroAgainstCommittedBaseline runs the macro gate against
// the committed ci-bench-baseline.json, as ci.sh does, with one row per
// design as RunMacro emits it. Rows at the baseline's serial rates pass,
// one row 20 % slower fails, and no row is matched against one of the
// baseline's parallel rows, which predate the one run path: giving them
// absurd rates, a different one each, leaves the verdict unchanged.
func TestCompareMacroAgainstCommittedBaseline(t *testing.T) {
	base, err := ReadJSON(filepath.Join("..", "..", "ci-bench-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	serial := map[string]float64{}
	for _, m := range base.Macro {
		if m.Parallelism == 1 {
			serial[m.Design] = m.EventsPerSec
		}
	}
	var rows []MacroResult
	for _, d := range Designs() {
		m, err := RunMacro(d, DefaultMix(), 1000, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		eps, ok := serial[m.Design]
		if !ok {
			t.Fatalf("baseline has no row for %s at parallelism %d", m.Design, m.Parallelism)
		}
		m.EventsPerSec = eps
		rows = append(rows, m)
	}
	current := func(slow string) *Report {
		r := &Report{Macro: append([]MacroResult(nil), rows...)}
		for i := range r.Macro {
			if r.Macro[i].Design == slow {
				r.Macro[i].EventsPerSec *= 0.8
			}
		}
		return r
	}

	if err := CompareMacro(current(""), base, 0.10); err != nil {
		t.Fatalf("rows at the baseline's rates failed the gate: %v", err)
	}
	if err := CompareMacro(current("Mirage"), base, 0.10); err == nil || !strings.Contains(err.Error(), "Mirage") {
		t.Fatalf("a row 20%% slower than its baseline passed the gate: %v", err)
	}
	for i := range base.Macro {
		if base.Macro[i].Parallelism != 1 {
			base.Macro[i].EventsPerSec = float64(i + 1)
		}
	}
	if err := CompareMacro(current(""), base, 0.10); err != nil {
		t.Fatalf("a row was matched against a baseline parallel row: %v", err)
	}
}
