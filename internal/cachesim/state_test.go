package cachesim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/ceaser"
	maya "mayacache/internal/core"
	"mayacache/internal/mirage"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// snapDesigns enumerates one representative configuration per LLC design;
// each factory call returns a brand-new instance so runs are independent.
var snapDesigns = []struct {
	name string
	mk   func() cachemodel.LLC
}{
	{"maya", func() cachemodel.LLC {
		return mustLLC(maya.NewChecked(maya.Config{
			SetsPerSkew: 256, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6,
			Seed: 9, Hasher: cachemodel.NewXorHasher(2, 8, 9),
		}))
	}},
	{"mirage", func() cachemodel.LLC {
		return mustLLC(mirage.NewChecked(mirage.Config{
			SetsPerSkew: 256, Skews: 2, BaseWays: 8, ExtraWays: 6,
			Seed: 9, Hasher: cachemodel.NewXorHasher(2, 8, 9),
		}))
	}},
	{"baseline", func() cachemodel.LLC {
		return mustLLC(baseline.NewChecked(baseline.Config{Sets: 512, Ways: 16, Replacement: baseline.DRRIP, Seed: 9}))
	}},
	{"ceaser", func() cachemodel.LLC {
		return mustLLC(ceaser.NewChecked(ceaser.Config{Sets: 512, Ways: 16, Variant: ceaser.CEASERS, RemapPeriod: 5000, Seed: 9}))
	}},
}

// snapSystem builds a two-core system (mcf + xz) around the given LLC.
func snapSystem(t testing.TB, llc cachemodel.LLC) *System {
	t.Helper()
	params := DefaultCoreParams()
	params.Prefetch = PrefetchConfig{Degree: 2} // exercise prefetcher state
	gens := []trace.Generator{
		benchGen(t, "mcf", 0, 5),
		benchGen(t, "xz", 1, 5),
	}
	return New(Config{Cores: 2, Core: params, LLC: llc, DRAM: DefaultDRAMConfig(), Seed: 5}, gens)
}

const (
	snapWarmup = 20000
	snapROI    = 60000
)

// encoded is an auto-snapshot sink's encoding into a fresh Encoder, so the
// bytes stay the caller's after the save.
func encoded(encode func(*snapshot.Encoder) error) ([]byte, error) {
	var e snapshot.Encoder
	if err := encode(&e); err != nil {
		return nil, err
	}
	return e.Data(), nil
}

// resultsJSON renders Results deterministically for byte comparison.
func resultsJSON(t *testing.T, r Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// captureMidROI runs a system with auto-snapshotting until the first save
// taken in the ROI phase, captures those bytes, and aborts the run.
func captureMidROI(t *testing.T, sys *System) []byte {
	t.Helper()
	errCaptured := errors.New("captured")
	var state []byte
	sys.SetAutoSnapshot(&AutoSnapshot{
		Every: 4096,
		Save: func(_ int, encode func(*snapshot.Encoder) error) error {
			data, err := encoded(encode)
			if err != nil {
				return err
			}
			snap, err := snapshot.Decode(data)
			if err != nil {
				t.Fatalf("auto-snapshot does not decode: %v", err)
			}
			if snap.Header.Phase != snapshot.PhaseROI {
				return nil // keep running until the ROI
			}
			state = data
			return errCaptured
		},
	})
	if _, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI}); !errors.Is(err, errCaptured) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if state == nil {
		t.Fatal("no mid-ROI snapshot captured")
	}
	return state
}

// TestResumeBitExact is the tentpole acceptance test: for every LLC
// design, a run snapshotted mid-ROI, restored into a fresh process-worth
// of state, and finished must produce Results byte-identical (JSON) to an
// uninterrupted run.
func TestResumeBitExact(t *testing.T) {
	for _, d := range snapDesigns {
		t.Run(d.name, func(t *testing.T) {
			full, err := Run(context.Background(), snapSystem(t, d.mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI})
			if err != nil {
				t.Fatal(err)
			}

			state := captureMidROI(t, snapSystem(t, d.mk()))

			resumed := snapSystem(t, d.mk())
			if err := resumed.RestoreState(state); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			res, err := Run(context.Background(), resumed, RunSpec{})
			if err != nil {
				t.Fatal(err)
			}

			fullJSON, _ := json.Marshal(full)
			resJSON, _ := json.Marshal(res)
			if !bytes.Equal(fullJSON, resJSON) {
				t.Fatalf("resumed results differ from uninterrupted run:\n full   %s\n resumed %s", fullJSON, resJSON)
			}
		})
	}
}

// savePoint identifies the step a save falls on: the phase and the
// instructions all cores had retired, which every step raises.
type savePoint struct {
	phase   uint8
	retired uint64
}

// savePoints runs a fresh snapshot system saving every every steps and
// returns where each save fell. The sink skips the encode: only the
// cadence is under test.
func savePoints(t *testing.T, every uint64) []savePoint {
	t.Helper()
	sys := snapSystem(t, snapDesigns[0].mk())
	var points []savePoint
	sys.SetAutoSnapshot(&AutoSnapshot{
		Every: every,
		Save: func(int, func(*snapshot.Encoder) error) error {
			p := savePoint{phase: sys.phase}
			for _, c := range sys.cores {
				p.retired += c.retired
			}
			points = append(points, p)
			return nil
		},
	})
	if _, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI}); err != nil {
		t.Fatal(err)
	}
	return points
}

// TestSaveCadence pins the steps periodic saves fall on to the rule
// steps%Every == 0, with steps counted from 1 in each phase, at cadences
// that are not powers of two. A run that saves at every step gives the
// point of each step k of a phase, the (k-1)-th save in it, so the rule
// picks every Every-th of those.
func TestSaveCadence(t *testing.T) {
	each := savePoints(t, 1)
	for _, every := range []uint64{3, 1000} {
		var want []savePoint
		var k uint64 // the step of each's point within its phase
		for i, p := range each {
			if i == 0 || p.phase != each[i-1].phase {
				k = 0
			}
			if k++; k%every == 0 {
				want = append(want, p)
			}
		}
		if got := savePoints(t, every); !slices.Equal(got, want) {
			t.Errorf("every %d: %d saves differ from the %d the modulo rule picks", every, len(got), len(want))
		}
		if len(want) < 2 {
			t.Errorf("every %d: only %d saves; the run is too short to pin the cadence", every, len(want))
		}
	}
}

// TestSnapshotTimingDoesNotPerturb: taking periodic snapshots must be
// invisible to the simulation — a run that saves every 2048 steps yields
// the same results as one that never saves.
func TestSnapshotTimingDoesNotPerturb(t *testing.T) {
	quiet, err := Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI})
	if err != nil {
		t.Fatal(err)
	}
	noisy := snapSystem(t, snapDesigns[0].mk())
	saves := 0
	noisy.SetAutoSnapshot(&AutoSnapshot{
		Every: 2048,
		Save: func(_ int, encode func(*snapshot.Encoder) error) error {
			saves++
			_, err := encoded(encode)
			return err
		},
	})
	res, err := Run(context.Background(), noisy, RunSpec{Warmup: snapWarmup, ROI: snapROI})
	if err != nil {
		t.Fatal(err)
	}
	if saves == 0 {
		t.Fatal("periodic snapshots never fired")
	}
	a, _ := json.Marshal(quiet)
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Fatal("snapshotting perturbed the simulation")
	}
}

// TestTriggerWritesDeadlineSnapshot: firing the trigger makes the run
// save once more and stop with ErrStopped, and the saved state resumes to
// the uninterrupted answer.
func TestTriggerWritesDeadlineSnapshot(t *testing.T) {
	full, err := Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI})
	if err != nil {
		t.Fatal(err)
	}

	var trig snapshot.Trigger
	trig.Fire() // fired before the run: first poll must stop it
	var state []byte
	sys := snapSystem(t, snapDesigns[0].mk())
	sys.SetAutoSnapshot(&AutoSnapshot{
		Trigger: &trig,
		Save: func(_ int, encode func(*snapshot.Encoder) error) (err error) {
			state, err = encoded(encode)
			return err
		},
	})
	if _, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI}); !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("triggered run returned %v, want ErrStopped", err)
	}
	if state == nil {
		t.Fatal("no deadline snapshot written")
	}

	resumed := snapSystem(t, snapDesigns[0].mk())
	if err := resumed.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), resumed, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Fatal("deadline-snapshot resume diverged from uninterrupted run")
	}
}

// TestErrSpent pins the reuse-after-failure contract: a cancelled run
// leaves the System spent, every further run attempt fails fast with
// ErrSpent (instead of silently continuing from mid-run garbage), and
// RestoreState clears the mark.
func TestErrSpent(t *testing.T) {
	d := snapDesigns[2]
	sys := snapSystem(t, d.mk())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sys, RunSpec{Warmup: snapWarmup, ROI: snapROI}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}

	if _, err := Run(context.Background(), sys, RunSpec{Warmup: 1, ROI: 1}); !errors.Is(err, ErrSpent) {
		t.Fatalf("Run after cancel returned %v, want ErrSpent", err)
	}
	if _, err := Run(context.Background(), sys, RunSpec{}); !errors.Is(err, ErrSpent) {
		t.Fatalf("resuming Run after cancel returned %v, want ErrSpent", err)
	}

	// A restore installs coherent state: the System is usable again.
	state := captureMidROI(t, snapSystem(t, d.mk()))
	if err := sys.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sys, RunSpec{}); err != nil {
		t.Fatalf("run after restore returned %v", err)
	}
}

// TestRestoreRejectsForeignRuns: each identity field mismatch must be a
// MismatchError naming that field, checked before any section decodes.
func TestRestoreRejectsForeignRuns(t *testing.T) {
	state := captureMidROI(t, snapSystem(t, snapDesigns[0].mk()))

	expectMismatch := func(t *testing.T, sys *System, field string) {
		t.Helper()
		err := sys.RestoreState(state)
		var mm *snapshot.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("got %v, want MismatchError", err)
		}
		if mm.Field != field {
			t.Fatalf("mismatch field %q, want %q", mm.Field, field)
		}
	}

	t.Run("seed", func(t *testing.T) {
		sys := snapSystem(t, snapDesigns[0].mk())
		sys.cfg.Seed++
		expectMismatch(t, sys, "seed")
	})
	t.Run("design", func(t *testing.T) {
		expectMismatch(t, snapSystem(t, snapDesigns[2].mk()), "design")
	})
	t.Run("workloads", func(t *testing.T) {
		params := DefaultCoreParams()
		params.Prefetch = PrefetchConfig{Degree: 2}
		gens := []trace.Generator{
			benchGen(t, "lbm", 0, 5),
			benchGen(t, "xz", 1, 5),
		}
		sys := New(Config{Cores: 2, Core: params, LLC: snapDesigns[0].mk(), DRAM: DefaultDRAMConfig(), Seed: 5}, gens)
		expectMismatch(t, sys, "workloads")
	})
	t.Run("geometry", func(t *testing.T) {
		sys := snapSystem(t, snapDesigns[0].mk())
		sys.cfg.Core.L2Sets *= 2
		expectMismatch(t, sys, "geometry")
	})
}

// TestRestoreRejectsCorruptState: truncations and bit flips surface as
// structured errors, never panics or silent acceptance.
func TestRestoreRejectsCorruptState(t *testing.T) {
	state := captureMidROI(t, snapSystem(t, snapDesigns[0].mk()))
	for _, n := range []int{0, 7, 64, len(state) / 2, len(state) - 1} {
		if err := snapSystem(t, snapDesigns[0].mk()).RestoreState(state[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	for _, pos := range []int{9, 40, 200, len(state) / 2, len(state) - 2} {
		bad := append([]byte(nil), state...)
		bad[pos] ^= 0x10
		if err := snapSystem(t, snapDesigns[0].mk()).RestoreState(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

// TestRunResumableCellProtocol drives the full cell lifecycle: fresh run
// interrupted by a trigger fired from the OnSave hook, then a resumed run
// in a "new process" (fresh cell, fresh system) completing to the
// uninterrupted answer, then a third call on the same file — a process
// that died after the run completed but before its value reached the
// checkpoint — resuming the last durable state to the same answer.
func TestRunResumableCellProtocol(t *testing.T) {
	full, err := Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), snapshot.CellFileName("cell"))
	var trig snapshot.Trigger
	cell, err := snapshot.OpenCell(snapshot.CellSpec{
		Path: path, Every: 4096, Trigger: &trig,
		OnSave: func(saves int) {
			if saves >= 3 {
				trig.Fire()
			}
		},
	}, "cell")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell})
	if !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("interrupted cell run returned %v, want ErrStopped", err)
	}

	cell2, err := snapshot.OpenCell(snapshot.CellSpec{Path: path}, "cell")
	if err != nil {
		t.Fatal(err)
	}
	if cell2.SystemState() == nil {
		t.Fatal("reopened cell has no in-progress state")
	}
	res, err := Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed cell run differs:\n full   %s\n resumed %s", a, b)
	}

	// The cell file holds only in-progress state, so a completed run's
	// leftover file resumes and recomputes the identical result.
	cell3, err := snapshot.OpenCell(snapshot.CellSpec{Path: path}, "cell")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell3})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(again)
	if !bytes.Equal(a, c) {
		t.Fatal("re-resumed result differs from live result")
	}
}

// TestRunFailsOnLostWrite removes the cell's directory from OnSave(1), so
// a later save's write fails. Run must return that write's error and
// leave the System spent, also when OnSave(1) fires the trigger, whose
// stop would otherwise return ErrStopped. In the last case the trigger
// has fired and the directory is gone before the run, so the write that
// fails is the stop's own final save, which only Run's join can see.
func TestRunFailsOnLostWrite(t *testing.T) {
	for _, c := range []struct {
		name       string
		stop, gone bool
	}{{"run", false, false}, {"stop", true, false}, {"final save", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cells")
			if !c.gone {
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			var trig snapshot.Trigger
			every := uint64(4096)
			if c.gone {
				trig.Fire()
				every = 0 // the stop's save is the only one
			}
			cell, err := snapshot.OpenCell(snapshot.CellSpec{
				Path: filepath.Join(dir, "cell.snap"), Every: every, Trigger: &trig,
				OnSave: func(saves int) {
					if saves == 1 {
						if err := os.RemoveAll(dir); err != nil {
							t.Error(err)
						}
						if c.stop {
							trig.Fire()
						}
					}
				},
			}, "lost")
			if err != nil {
				t.Fatal(err)
			}
			sys := snapSystem(t, snapDesigns[0].mk())
			res, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell})
			if errors.Is(err, snapshot.ErrStopped) || !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("run returned %v, want the failed write's error", err)
			}
			if len(res.Cores) != 0 {
				t.Fatal("a failed run returned results")
			}
			if _, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI}); !errors.Is(err, ErrSpent) {
				t.Fatalf("rerun after a failed write returned %v, want ErrSpent", err)
			}
		})
	}
}

// TestRunFailsOnLostLastWrite loses the write of a run's last save, after
// which the simulation completes: only Run's final join sees the failure,
// and Run must return it and leave the System spent. An undisturbed run
// first counts the saves, so PreSave knows which save is the last.
func TestRunFailsOnLostLastWrite(t *testing.T) {
	probe, err := snapshot.OpenCell(snapshot.CellSpec{Path: filepath.Join(t.TempDir(), "probe.snap"), Every: 4096}, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), snapSystem(t, snapDesigns[0].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: probe}); err != nil {
		t.Fatal(err)
	}
	last := probe.Saves()
	if last < 2 {
		t.Fatalf("the run saved %d times, want at least 2", last)
	}

	dir := filepath.Join(t.TempDir(), "cells")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cell, err := snapshot.OpenCell(snapshot.CellSpec{
		Path: filepath.Join(dir, "cell.snap"), Every: 4096,
		PreSave: func(saves int) error {
			if saves == last {
				return os.RemoveAll(dir)
			}
			return nil
		},
	}, "lost-last")
	if err != nil {
		t.Fatal(err)
	}
	sys := snapSystem(t, snapDesigns[0].mk())
	res, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell})
	if !errors.Is(err, fs.ErrNotExist) || len(res.Cores) != 0 {
		t.Fatalf("run returned %d core results and %v, want none and the failed write's error", len(res.Cores), err)
	}
	if _, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI}); !errors.Is(err, ErrSpent) {
		t.Fatalf("rerun after a failed last write returned %v, want ErrSpent", err)
	}
}
