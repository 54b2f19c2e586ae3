package buckets

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_mc.json (only for a deliberate change to the model's output)")

var goldenMCPath = filepath.Join("testdata", "golden_mc.json")

// mcRecord is everything one pinned run leaves behind: its counters, the
// raw occupancy histogram, a digest of the final bucket arrays and the
// generator state, so any change to a draw, an event or its order shows.
type mcRecord struct {
	Name       string    `json:"name"`
	Iterations uint64    `json:"iterations"`
	Installs   uint64    `json:"installs"`
	Spills     uint64    `json:"spills"`
	FirstSpill uint64    `json:"first_spill"`
	Spilled    bool      `json:"spilled"`
	Hist       []uint64  `json:"hist"`
	HistEvents uint64    `json:"hist_events"`
	Buckets    string    `json:"buckets"`
	State      rng.State `json:"state"`
	// UntilSpill lists what each RunUntilSpill call returned, in order.
	UntilSpill []untilSpillResult `json:"until_spill,omitempty"`
}

type untilSpillResult struct {
	Iters   uint64 `json:"iters"`
	Spilled bool   `json:"spilled"`
}

func recordOf(name string, m *Model) mcRecord {
	h := fnv.New64a()
	h.Write(m.total)
	h.Write(m.p0)
	fs, spilled := m.FirstSpill()
	hist, events := m.HistCounts()
	return mcRecord{
		Name: name, Iterations: m.Iterations(), Installs: m.Installs(),
		Spills: m.Spills(), FirstSpill: fs, Spilled: spilled,
		Hist: hist, HistEvents: events,
		Buckets: fmt.Sprintf("%016x", h.Sum64()),
		State:   m.r.Save(),
	}
}

// goldenRun is one pinned model run.
type goldenRun struct {
	name string
	cfg  Config
	run  func(m *Model) []untilSpillResult
}

func runFor(n uint64) func(m *Model) []untilSpillResult {
	return func(m *Model) []untilSpillResult { m.Run(n); return nil }
}

// stepFor advances the model one Step at a time; its record must equal
// runFor's for the same n.
func stepFor(n uint64) func(m *Model) []untilSpillResult {
	return func(m *Model) []untilSpillResult {
		for i := uint64(0); i < n; i++ {
			m.Step()
		}
		return nil
	}
}

func goldenRuns() []goldenRun {
	var runs []goldenRun
	// Fig 6's simulated capacities on a small geometry: 9-12 spill, and
	// at 9 and 10 spills often find a bucket with no priority-0 ball, so
	// the priority-0 upgrade after a priority-1 spill runs too.
	for _, c := range []int{9, 10, 11, 12, 13} {
		cfg := MayaDefault(64, uint64(100+c))
		cfg.Capacity = c
		runs = append(runs, goldenRun{fmt.Sprintf("maya-cap%d", c), cfg, runFor(200_000)})
	}
	// The Fig 7 cadence: equal chunks, a histogram sample after each.
	runs = append(runs, goldenRun{"maya-fig7", MayaDefault(128, 7), func(m *Model) []untilSpillResult {
		for i := 0; i < 50; i++ {
			m.Run(2_000)
			m.SampleHistogram()
		}
		return nil
	}})
	mirage := ForRow(cachemodel.Mirage, 64, 21)
	mirage.Capacity = 10
	runs = append(runs, goldenRun{"mirage-cap10", mirage, runFor(300_000)})
	runs = append(runs, goldenRun{"threshold-until-spill", ThresholdDefault(256, 31), func(m *Model) []untilSpillResult {
		var out []untilSpillResult
		for i := 0; i < 3; i++ {
			n, ok := m.RunUntilSpill(1_000_000)
			out = append(out, untilSpillResult{n, ok})
		}
		return out
	}})
	maya10 := MayaDefault(64, 41)
	maya10.Capacity = 10
	runs = append(runs, goldenRun{"maya-cap10-until-spill", maya10, func(m *Model) []untilSpillResult {
		var out []untilSpillResult
		for i := 0; i < 4; i++ {
			n, ok := m.RunUntilSpill(100)
			out = append(out, untilSpillResult{n, ok})
		}
		m.Run(1_000)
		return out
	}})
	maya11 := MayaDefault(64, 51)
	maya11.Capacity = 11
	runs = append(runs, goldenRun{"maya-cap11-step", maya11, stepFor(20_000)})
	return runs
}

func recordGolden() []mcRecord {
	var recs []mcRecord
	for _, g := range goldenRuns() {
		m := New(g.cfg)
		us := g.run(m)
		rec := recordOf(g.name, m)
		rec.UntilSpill = us
		recs = append(recs, rec)
	}
	return recs
}

// TestGoldenMC pins the bucket-and-balls model's exact output, spill paths
// included: Maya at Fig 6's capacities, the Fig 7 sampling cadence, Mirage
// and the threshold design at spilling capacities, and RunUntilSpill.
// Regenerate deliberately with:
//
//	go test ./internal/buckets -run TestGoldenMC -update
func TestGoldenMC(t *testing.T) {
	recs := recordGolden()
	got, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(goldenMCPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenMCPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w []mcRecord
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("parse %s: %v", goldenMCPath, err)
	}
	for i := range w {
		if i < len(recs) && !reflect.DeepEqual(recs[i], w[i]) {
			t.Errorf("%s:\n got %+v\nwant %+v", w[i].Name, recs[i], w[i])
		}
	}
	t.Fatalf("model output differs from %s", goldenMCPath)
}

// TestStepMatchesRun checks that Step-by-Step and one Run of the same
// length leave identical models, on a spilling configuration.
func TestStepMatchesRun(t *testing.T) {
	cfg := MayaDefault(64, 51)
	cfg.Capacity = 10
	a, b := New(cfg), New(cfg)
	stepFor(20_000)(a)
	b.Run(20_000)
	ra, rb := recordOf("step", a), recordOf("step", b)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("Step-by-Step %+v\n!= Run %+v", ra, rb)
	}
	if ra.Spills == 0 {
		t.Fatal("no spills: the comparison does not cover the spill paths")
	}
}
