package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden fixtures")

func goldenPath(design string) string {
	name := strings.ToLower(strings.ReplaceAll(design, "-", "_"))
	return filepath.Join("testdata", fmt.Sprintf("golden_%s.json", name))
}

// TestGolden locks the observable behavior of every design: each runs the
// pinned golden workload and its full Results JSON must be byte-identical
// to the committed fixture. This is the regression gate behind every
// hot-path optimization — speedups must not change a single hit, miss,
// victim choice, or stat. Regenerate deliberately with:
//
//	go test ./internal/bench -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, design := range Designs() {
		t.Run(design, func(t *testing.T) {
			res, err := GoldenRun(design)
			if err != nil {
				t.Fatalf("GoldenRun(%q): %v", design, err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')
			path := goldenPath(design)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: results differ from golden fixture %s\n"+
					"an optimization changed observable behavior; if the change is intended, rerun with -update\n"+
					"got:\n%s", design, path, got)
			}
		})
	}
}

// TestGoldenMemoOff proves the index memo is a pure speed lever: every
// design re-runs the golden workload as its memo-off twin (the registry's
// geometry and name, PRINCE without the memo) and the Results JSON must
// still byte-match the committed fixture (which the memo-on run in
// TestGolden also matches). Any divergence means the memo leaked into
// observable behavior.
func TestGoldenMemoOff(t *testing.T) {
	for _, design := range Designs() {
		t.Run(design, func(t *testing.T) {
			twin := memoOffTwin(t, design, len(goldenMix), goldenSeed)
			res, err := goldenRunLLC(twin)
			if err != nil {
				t.Fatalf("golden run of memo-off %s: %v", design, err)
			}
			if s := twin.StatsSnapshot(); s.MemoHits+s.MemoMisses != 0 {
				t.Fatalf("memo-off %s recorded memo traffic: %d hits, %d misses", design, s.MemoHits, s.MemoMisses)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(goldenPath(design))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: memo-off results differ from the golden fixture — the memo changed observable behavior", design)
			}
		})
	}
}

// TestGoldenDeterministic guards the premise of the fixtures: two runs in
// the same process must agree exactly.
func TestGoldenDeterministic(t *testing.T) {
	design := Designs()[0]
	a, err := GoldenRun(design)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GoldenRun(design)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("golden run is nondeterministic for %s", design)
	}
}
