package snapshot_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	_ "mayacache/internal/core" // links the Maya family
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

// mallocs counts the heap allocations f makes in one call, as
// testing.AllocsPerRun counts them.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCellSaveEncodesWithoutAllocating guards the one-pass save on a
// production-shaped System (Maya, two cores): a fresh cell's first save
// encodes with exactly one allocation, its buffer, sized from the
// System's StateBound to at most 1.05 times the image; later saves
// allocate nothing to encode; and the image is the file the save wrote.
// The encoding half of a save is measured (snapshot.EncodeCell), not the
// start of its writer goroutine.
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
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.snap")
	cell, err := snapshot.OpenCell(snapshot.CellSpec{Path: path}, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	// fresh encodes the same saves as cell (same key, so the same image)
	// and is measured from its first.
	fresh, err := snapshot.OpenCell(snapshot.CellSpec{Path: filepath.Join(dir, "fresh.snap")}, "alloc")
	if err != nil {
		t.Fatal(err)
	}

	errMeasured := errors.New("measured")
	first, later := uint64(0), -1.0
	var image []byte
	sys.SetAutoSnapshot(&cachesim.AutoSnapshot{
		Every: 1 << 12,
		Save: func(bound int, encode func(*snapshot.Encoder) error) error {
			if err := cell.SaveSystem(bound, encode); err != nil {
				return err
			}
			if err := cell.Wait(); err != nil { // no write allocates while measuring
				return err
			}
			first = mallocs(func() {
				image, err = snapshot.EncodeCell(fresh, bound, encode)
				if err != nil {
					t.Fatal(err)
				}
			})
			later = testing.AllocsPerRun(5, func() {
				image, err = snapshot.EncodeCell(fresh, bound, encode)
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
	if first != 1 {
		t.Errorf("a fresh cell's first save allocated %d times to encode, want 1", first)
	}
	if float64(cap(image)) > 1.05*float64(len(image)) {
		t.Errorf("the cell's buffer holds %d bytes, more than 1.05 times its %d-byte image", cap(image), len(image))
	}
	if later != 0 {
		t.Errorf("encoding a later save into the cell's buffer allocated %v times, want 0", later)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, saved) {
		t.Fatal("re-encoding the same state gave a different file image")
	}
}
