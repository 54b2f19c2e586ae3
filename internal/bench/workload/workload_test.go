package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mayacache/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from a full-scale seed-1 run")

// tinyRunner runs one op per workload at test scale, with no pinned
// outputs: every check is self-consistency.
func tinyRunner(seed uint64) *runner {
	return newRunner(context.Background(), seed, tinyScale(), time.Nanosecond, nil)
}

func noProblems(t *testing.T, r *runner) {
	t.Helper()
	for _, p := range r.problems {
		t.Error(p)
	}
	if r.failed != 0 {
		t.Errorf("%d ops failed", r.failed)
	}
}

// TestReplayExact is what makes the ledger an attribution: at a tiny
// scale, replaying each recorded LLC stream through a fresh design must
// reproduce the recorded counters exactly (for every fig9-mix8 design, and
// for every fig8-attack design, whose tiny trials all reach the recording
// cap), the DRAM replay must reproduce the run's DRAM counters, each
// core's private-cache replay must issue exactly the recorded LLC stream,
// and the null-LLC system must retire the same instruction budgets.
func TestReplayExact(t *testing.T) {
	r := tinyRunner(3)
	mix, err := mixLedgerPass(r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newAttackSetup(r)
	if err != nil {
		t.Fatal(err)
	}
	att, err := attackPass(r, s)
	if err != nil {
		t.Fatal(err)
	}
	noProblems(t, r)
	for _, d := range mixDesignKeys {
		if got := mix["llc."+d+".replay_exact"]; got != 1 {
			t.Errorf("llc.%s.replay_exact = %v", d, got)
		}
		if mix["llc."+d+".accesses"] == 0 {
			t.Errorf("llc.%s recorded no accesses", d)
		}
	}
	for _, d := range attackDesignKeys {
		if got := att["attack.llc."+d+".replay_exact"]; got != 1 {
			t.Errorf("attack.llc.%s.replay_exact = %v", d, got)
		}
	}
}

// TestTailPercentile checks the guide's reporting rule: the highest whole
// percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		ok     bool
	}{{5, 0, false}, {10, 0, false}, {11, 9, true}, {24, 58, true}, {200, 95, true}, {300, 96, true}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tailOf must sort
		}
		got := tailOf(xs)
		if got.N != tc.n || got.OK != tc.ok || got.Pct != tc.pct {
			t.Errorf("n=%d: got N=%d OK=%v p%d, want OK=%v p%d", tc.n, got.N, got.OK, got.Pct, tc.ok, tc.pct)
			continue
		}
		if !tc.ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%d = %v has %d samples beyond it", tc.n, got.Pct, got.Value, beyond)
		}
		if next := tc.pct + 1; tc.n-ceilDiv(next*tc.n, 100) >= 10 {
			t.Errorf("n=%d: p%d also has ten samples beyond it", tc.n, next)
		}
	}
}

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and this package in step, and
// checks that a tiny run of every workload reports exactly the declared
// metrics with the declared units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"internal/bench/workload"}) ||
		!reflect.DeepEqual(b.Command, []string{"bash", "internal/bench/workload/run.sh"}) {
		t.Errorf("BENCHMARK.json command %q and paths %q must run this directory's run.sh", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	var wl [][2]string
	for _, w := range b.Workloads {
		checkName(w.Name)
		wl = append(wl, [2]string{w.Name, w.Why})
	}
	var want [][2]string
	for _, w := range workloads {
		want = append(want, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(wl, want) {
		t.Errorf("BENCHMARK.json workloads\n%v\nwant\n%v", wl, want)
	}

	var e2e []metricDef
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nwant\n%v", e2e, endToEnd)
	}
	var layer []metricDef
	for _, m := range b.PerLayer {
		checkName(m.Name)
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	var wantLayer []metricDef
	for _, m := range perLayer {
		wantLayer = append(wantLayer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nwant\n%v", layer, wantLayer)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		if _, ok := lookupWorkload(m.On); !ok {
			t.Errorf("%s moves unknown workload %q", m.Name, m.On)
		}
		known := false
		for _, e := range endToEnd {
			known = known || e.Name == m.Moves
		}
		if !known {
			t.Errorf("%s moves unknown end-to-end metric %q", m.Name, m.Moves)
		}
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				checkRun(t, w, traced, defs)
			})
		}
	}
}

// checkRun runs w once at test scale and checks its result line.
func checkRun(t *testing.T, w workload, traced bool, defs []metricDef) {
	var out bytes.Buffer
	if code := report(tinyRunner(2), w, traced, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("missing %s", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
		case !traced && v.Value <= 0:
			t.Errorf("%s = %v, want a positive measurement", d.Name, v.Value)
		}
	}
}

// TestPinnedDigests recomputes the reference outputs testdata/digests.json
// pins, through the production entry points alone (session results from
// experiments.RunGridCell, without the service). With -update it rewrites
// the file.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale runs")
	}
	got, err := referenceOutputs()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("testdata/digests.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reference outputs moved (rerun with -update only for an intended semantic change):\n%s", data)
	}
}

func referenceOutputs() (*pins, error) {
	r := newRunner(context.Background(), 1, fullScale(), 0, nil)
	p := &pins{Seed: r.seed, Mix8: map[string]string{}, Attack: map[string]attackPin{}, Serve: map[string]string{}}
	for _, d := range mixDesigns {
		sys, err := buildMix(d, r.seed)
		if err != nil {
			return nil, err
		}
		res, _, err := runSim(r, sys)
		if err != nil {
			return nil, err
		}
		if p.Mix8[string(d)], err = digest(res); err != nil {
			return nil, err
		}
	}
	s, err := newAttackSetup(r)
	if err != nil {
		return nil, err
	}
	for _, d := range s.designs {
		var a attackPin
		for _, v := range attackVictims {
			c, err := runCell(r, s, d, v.name, v.seedOff, nil)
			if err != nil {
				return nil, err
			}
			if v.name == "aes" {
				a.AES = c.trials
			} else {
				a.ModExp = c.trials
			}
		}
		p.Attack[d.name] = a
	}
	res, err := experiments.Fig7(r.ctx, secSpec(r, maxWorkers))
	if err != nil {
		return nil, err
	}
	if p.MC, err = digest(res); err != nil {
		return nil, err
	}
	for k, b := range sessionBenches {
		sp := sessionSpec(r, 0, k)
		res, err := experiments.RunGridCell(r.ctx, experiments.Design(sp.Design), sp.Bench, sp.Cores, sp.Scale())
		if err != nil {
			return nil, err
		}
		if p.Serve[b], err = digest(res); err != nil {
			return nil, err
		}
	}
	return p, nil
}
