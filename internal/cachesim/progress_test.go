package cachesim

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"mayacache/internal/mc"
	"mayacache/internal/snapshot"
)

// TestProgressTracking: a tracker attached to the context reaches
// Run's simulation and accumulates every retired instruction
// (warmup and ROI, all cores). The drive loop can overshoot a core's
// target by the final event's gap, so the assertion is total-or-slightly-
// more, never less.
func TestProgressTracking(t *testing.T) {
	const total = 2 * (snapWarmup + snapROI) // two cores
	tr := mc.NewTracker(total, nil)
	ctx := mc.WithTracker(context.Background(), tr)
	if _, err := Run(ctx, snapSystem(t, snapDesigns[2].mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI}); err != nil {
		t.Fatal(err)
	}
	if done := tr.Done(); done < total || done > total+total/2 {
		t.Fatalf("tracker done = %d, want in [%d, %d]", done, total, total+total/2)
	}
}

// TestProgressTrackingResume: a resumed run reports only the instructions
// retired in the resuming process — the tracker baseline is the restored
// state, so an interrupted-then-resumed session's two trackers sum to
// roughly one full run, not more.
func TestProgressTrackingResume(t *testing.T) {
	const total = 2 * (snapWarmup + snapROI)
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
	tr1 := mc.NewTracker(total, nil)
	_, err = Run(mc.WithTracker(context.Background(), tr1), snapSystem(t, snapDesigns[0].mk()),
		RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell})
	if !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("interrupted run returned %v, want ErrStopped", err)
	}
	first := tr1.Done()
	if first == 0 || first >= total {
		t.Fatalf("interrupted run reported %d of %d", first, total)
	}

	cell2, err := snapshot.OpenCell(snapshot.CellSpec{Path: path}, "cell")
	if err != nil {
		t.Fatal(err)
	}
	tr2 := mc.NewTracker(total, nil)
	if _, err := Run(mc.WithTracker(context.Background(), tr2), snapSystem(t, snapDesigns[0].mk()),
		RunSpec{Warmup: snapWarmup, ROI: snapROI, Cell: cell2}); err != nil {
		t.Fatal(err)
	}
	second := tr2.Done()
	if second == 0 || second >= total {
		t.Fatalf("resumed run reported %d of %d", second, total)
	}
	// The snapshot cadence means the resume replays at most one interval;
	// the two epochs cover the run without double-counting more than that.
	if sum := first + second; sum < total || sum > total+total/2 {
		t.Fatalf("epochs sum to %d, want about %d", sum, total)
	}
}
