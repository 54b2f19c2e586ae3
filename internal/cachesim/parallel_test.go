package cachesim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"mayacache/internal/snapshot"
)

// resultsJSON renders Results deterministically for byte comparison.
func resultsJSON(t *testing.T, r Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelMatchesSerial proves the deterministic parallel mode's core
// claim: for every LLC design, a parallel run returns byte-identical
// Results to the serial path on the same configuration.
func TestParallelMatchesSerial(t *testing.T) {
	for _, d := range snapDesigns {
		t.Run(d.name, func(t *testing.T) {
			serial, err := Run(context.Background(), snapSystem(t, d.mk()),
				RunSpec{Warmup: snapWarmup, ROI: snapROI})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(context.Background(), snapSystem(t, d.mk()),
				RunSpec{Warmup: snapWarmup, ROI: snapROI, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if s, p := resultsJSON(t, serial), resultsJSON(t, par); !bytes.Equal(s, p) {
				t.Fatalf("parallel diverged from serial:\nserial   %s\nparallel %s", s, p)
			}
		})
	}
}

// TestParallelAtGOMAXPROCS runs one design at the machine's actual worker
// count (what CI's -race leg exercises), pinning that the bit-exactness
// claim holds at whatever parallelism the hardware delivers, not only at
// the fixed fan-outs used above.
func TestParallelAtGOMAXPROCS(t *testing.T) {
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 2
	}
	d := snapDesigns[0]
	serial, err := Run(context.Background(), snapSystem(t, d.mk()),
		RunSpec{Warmup: snapWarmup, ROI: snapROI})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(context.Background(), snapSystem(t, d.mk()),
		RunSpec{Warmup: snapWarmup, ROI: snapROI, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if s, pj := resultsJSON(t, serial), resultsJSON(t, p); !bytes.Equal(s, pj) {
		t.Fatalf("parallelism %d diverged from serial:\nserial   %s\nparallel %s", par, s, pj)
	}
}

// TestParallelBatchBoundaries pins bit-exactness at the ring transport's
// edge cases: budgets of 1, batchSteps-1, batchSteps, and batchSteps+1
// instructions (1, 63, 64, 65) force runs whose record streams end just
// below, exactly at, and just past a batch boundary, exercising the
// partial final publish, the exactly-full publish, and the
// one-record-into-a-fresh-batch paths on both the warmup and ROI legs.
func TestParallelBatchBoundaries(t *testing.T) {
	d := snapDesigns[0]
	for _, budget := range []uint64{1, batchSteps - 1, batchSteps, batchSteps + 1} {
		for _, par := range []int{2, 4} {
			serial, err := Run(context.Background(), snapSystem(t, d.mk()),
				RunSpec{Warmup: budget, ROI: budget})
			if err != nil {
				t.Fatalf("budget %d serial: %v", budget, err)
			}
			p, err := Run(context.Background(), snapSystem(t, d.mk()),
				RunSpec{Warmup: budget, ROI: budget, Parallelism: par})
			if err != nil {
				t.Fatalf("budget %d parallelism %d: %v", budget, par, err)
			}
			if s, pj := resultsJSON(t, serial), resultsJSON(t, p); !bytes.Equal(s, pj) {
				t.Fatalf("budget %d parallelism %d diverged from serial:\nserial   %s\nparallel %s",
					budget, par, s, pj)
			}
		}
	}
}

// runCapturing runs sys to completion while collecting every auto-snapshot
// blob the drive loop emits.
func runCapturing(t *testing.T, sys *System, par int) (Results, [][]byte) {
	t.Helper()
	var snaps [][]byte
	sys.SetAutoSnapshot(&AutoSnapshot{
		Every: 4096,
		Save: func(encode func(*snapshot.Encoder) error) error {
			data, err := encoded(encode)
			snaps = append(snaps, data)
			return err
		},
	})
	res, err := Run(context.Background(), sys, RunSpec{Warmup: snapWarmup, ROI: snapROI, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return res, snaps
}

// TestParallelSnapshotsByteIdentical compares every mid-run snapshot a
// parallel run takes against the serial run's snapshot at the same step:
// same count, and byte-for-byte equal blobs. This exercises the replica
// replay machinery (workers are far ahead of the merge when each snapshot
// fires) across warmup, the phase barrier, and the ROI.
func TestParallelSnapshotsByteIdentical(t *testing.T) {
	for _, d := range snapDesigns[:2] { // maya + mirage: remap-heavy designs
		t.Run(d.name, func(t *testing.T) {
			sres, ssnaps := runCapturing(t, snapSystem(t, d.mk()), 1)
			pres, psnaps := runCapturing(t, snapSystem(t, d.mk()), 4)
			if len(ssnaps) == 0 {
				t.Fatal("serial run took no snapshots; cadence too coarse for the budgets")
			}
			if len(ssnaps) != len(psnaps) {
				t.Fatalf("snapshot count diverged: serial %d parallel %d", len(ssnaps), len(psnaps))
			}
			for i := range ssnaps {
				if !bytes.Equal(ssnaps[i], psnaps[i]) {
					t.Fatalf("snapshot %d/%d differs between serial and parallel", i+1, len(ssnaps))
				}
			}
			if s, p := resultsJSON(t, sres), resultsJSON(t, pres); !bytes.Equal(s, p) {
				t.Fatalf("results diverged:\nserial   %s\nparallel %s", s, p)
			}
		})
	}
}

// TestParallelResumeFromSerialSnapshot restores a serial mid-ROI snapshot
// and finishes it in parallel mode; the results must match finishing it
// serially. Resume is where restored done-flags, mid-phase targets, and
// partially drained windows all feed the worker/merge split.
func TestParallelResumeFromSerialSnapshot(t *testing.T) {
	d := snapDesigns[0]
	state := captureMidROI(t, snapSystem(t, d.mk()))

	finish := func(par int) Results {
		sys := snapSystem(t, d.mk())
		if err := sys.RestoreState(state); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), sys, RunSpec{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if s, p := resultsJSON(t, finish(1)), resultsJSON(t, finish(4)); !bytes.Equal(s, p) {
		t.Fatalf("resumed results diverged:\nserial   %s\nparallel %s", s, p)
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

// TestParallelSpentOnCancel checks the parallel path honours the same
// lifecycle: cancellation mid-run marks the System spent and joins the
// worker goroutines rather than leaking them.
func TestParallelSpentOnCancel(t *testing.T) {
	sys := snapSystem(t, snapDesigns[2].mk())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sys, RunSpec{Warmup: snapWarmup, ROI: snapROI, Parallelism: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parallel run returned %v", err)
	}
	if _, err := Run(context.Background(), sys, RunSpec{Warmup: 1, ROI: 1, Parallelism: 4}); !errors.Is(err, ErrSpent) {
		t.Fatalf("parallel run after cancel returned %v, want ErrSpent", err)
	}
}
