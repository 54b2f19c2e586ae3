package cachesim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// cellFileDigests pins the files a cell save writes: the cell header, the
// system section's framing and CRC around the System container, and the
// container itself. Like the compat blobs, the digests were recorded
// before the container writer became one-pass and are regenerated only
// for a deliberate wire-format change (-update-compat).
const cellFileDigests = "testdata/cell_digests.json"

// cellFileCases are production-shaped cells: registry designs built with
// FastHash at the default sets per core, default core parameters, and
// one DRAM channel per four cores, as the experiments layer builds them.
var cellFileCases = []struct {
	name, design string
	benches      []string
}{
	{"maya-1c-mcf", "Maya", []string{"mcf"}},
	{"maya-2c-lbm", "Maya", []string{"lbm", "lbm"}},
	{"mirage-2c-mcf", "Mirage", []string{"mcf", "mcf"}},
	{"baseline-1c-lbm", "Baseline", []string{"lbm"}},
}

const (
	cellFileEvery  = 1 << 12
	cellFileWarmup = 25000
	cellFileROI    = 25000
	cellFileSeed   = 1
)

// cellFileSaves runs one case under a cell that saves every 2^12 steps
// and returns the SHA-256 of the cell file after each save.
func cellFileSaves(t *testing.T, design string, benches []string) []string {
	t.Helper()
	llc, err := cachemodel.Build(design, cachemodel.BuildOptions{Cores: len(benches), Seed: cellFileSeed, FastHash: true})
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]trace.Generator, len(benches))
	for i, b := range benches {
		gens[i] = benchGen(t, b, i, cellFileSeed)
	}
	dram := DefaultDRAMConfig()
	dram.Channels = (len(benches) + 3) / 4
	sys := New(Config{Cores: len(benches), Core: DefaultCoreParams(), LLC: llc, DRAM: dram, Seed: cellFileSeed}, gens)

	path := filepath.Join(t.TempDir(), "cell.snap")
	var digests []string
	cell, err := snapshot.OpenCell(snapshot.CellSpec{
		Path:  path,
		Every: cellFileEvery,
		OnSave: func(int) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			sum := sha256.Sum256(data)
			digests = append(digests, hex.EncodeToString(sum[:]))
		},
	}, "cellfile|"+design+"|"+benches[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sys, RunSpec{Warmup: cellFileWarmup, ROI: cellFileROI, Cell: cell}); err != nil {
		t.Fatal(err)
	}
	return digests
}

// TestCellFileBytes asserts the digest of the cell file after every save.
func TestCellFileBytes(t *testing.T) {
	if *updateCompat {
		want := map[string][]string{}
		for _, c := range cellFileCases {
			want[c.name] = cellFileSaves(t, c.design, c.benches)
		}
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cellFileDigests, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", cellFileDigests)
		return
	}
	data, err := os.ReadFile(cellFileDigests)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range cellFileCases {
		t.Run(c.name, func(t *testing.T) {
			if len(want[c.name]) < 3 {
				t.Fatalf("%d pinned saves, want at least 3", len(want[c.name]))
			}
			if got := cellFileSaves(t, c.design, c.benches); !reflect.DeepEqual(got, want[c.name]) {
				t.Fatalf("cell file digests differ from the pinned ones:\n got  %v\n want %v", got, want[c.name])
			}
		})
	}
}
