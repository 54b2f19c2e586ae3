package snapshot_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	_ "mayacache/internal/core" // registers Maya
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// benchGen builds core coreID's generator for a registered benchmark,
// failing the test on an unknown name.
func benchGen(t testing.TB, bench string, coreID int, seed uint64) trace.Generator {
	t.Helper()
	p, err := trace.Lookup(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(p, coreID, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCellSaveEncodesWithoutAllocating guards the one-pass save: once a
// cell's first save has sized its buffer, encoding a production-shaped
// System (Maya, two cores) into that buffer allocates nothing, and the
// re-encoded image is the file the save wrote.
func TestCellSaveEncodesWithoutAllocating(t *testing.T) {
	llc, err := cachemodel.Build("Maya", cachemodel.BuildOptions{Cores: 2, Seed: 1, FastHash: true})
	if err != nil {
		t.Fatal(err)
	}
	gens := []trace.Generator{
		benchGen(t, "mcf", 0, 1),
		benchGen(t, "lbm", 1, 1),
	}
	sys := cachesim.New(cachesim.Config{Cores: 2, Core: cachesim.DefaultCoreParams(), LLC: llc,
		DRAM: cachesim.DefaultDRAMConfig(), Seed: 1}, gens)
	path := filepath.Join(t.TempDir(), "cell.snap")
	cell, err := snapshot.OpenCell(snapshot.CellSpec{Path: path}, "alloc")
	if err != nil {
		t.Fatal(err)
	}

	errMeasured := errors.New("measured")
	allocs := -1.0
	var image []byte
	sys.SetAutoSnapshot(&cachesim.AutoSnapshot{
		Every: 1 << 12,
		Save: func(encode func(*snapshot.Encoder) error) error {
			if err := cell.SaveSystem(encode); err != nil {
				return err
			}
			allocs = testing.AllocsPerRun(5, func() {
				image, err = snapshot.EncodeCell(cell, encode)
				if err != nil {
					t.Fatal(err)
				}
			})
			return errMeasured
		},
	})
	if _, err := cachesim.Run(context.Background(), sys, cachesim.RunSpec{Warmup: 20000, ROI: 20000}); !errors.Is(err, errMeasured) {
		t.Fatalf("run returned %v, want the measuring save's stop", err)
	}
	if allocs != 0 {
		t.Fatalf("encoding a save into the cell's buffer allocated %v times, want 0", allocs)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, saved) {
		t.Fatal("re-encoding the same state gave a different file image")
	}
}
