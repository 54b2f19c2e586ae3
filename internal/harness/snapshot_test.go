package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mayacache/internal/snapshot"
)

// TestCheckpointLockExclusive: a checkpoint open for appending cannot be
// opened again until closed — the advisory lock rejects the second opener.
func TestCheckpointLockExclusive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path); err == nil {
		t.Fatal("second OpenCheckpoint succeeded while the first holds the lock")
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	_ = ck2.Close()
}

// TestCheckpointSnapshotRecords: snapshot-path entries survive a close and
// reload, and are superseded by a completed-cell value for the same key.
func TestCheckpointSnapshotRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.RecordSnapshot("exp|cell=1", "snaps/cell-a.snap"); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("exp|cell=2", 42); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err = OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := ck.SnapshotPath("exp|cell=1"); !ok || p != "snaps/cell-a.snap" {
		t.Fatalf("snapshot path not restored: %q %v", p, ok)
	}
	// Completing the cell supersedes its snapshot record.
	if err := ck.Record("exp|cell=1", 7); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	ck, err = OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if _, ok := ck.SnapshotPath("exp|cell=1"); ok {
		t.Fatal("snapshot record survived cell completion")
	}
	var v int
	if hit, err := ck.Lookup("exp|cell=1", &v); err != nil || !hit || v != 7 {
		t.Fatalf("completed value lost: %v %v %d", hit, err, v)
	}
	// Recording a snapshot for a completed cell is a programming error.
	if err := ck.RecordSnapshot("exp|cell=1", "x"); err == nil {
		t.Fatal("RecordSnapshot accepted for completed cell")
	}
}

// TestRunCellsMidCellResume drives the harness's cell-snapshot protocol
// without a simulator: the first sweep's cell saves state and stops with
// ErrStopped (a deadline stop), the second sweep finds the recorded
// snapshot path in the checkpoint and resumes from the saved state.
func TestRunCellsMidCellResume(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "ck.jsonl")
	snapDir := filepath.Join(dir, "snaps")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}

	open := func(trig *snapshot.Trigger) (*Checkpoint, *Runner) {
		ck, err := OpenCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		r := New(Options{Workers: 1, Checkpoint: ck,
			SnapshotDir: snapDir, SnapshotEvery: 100, SnapshotTrigger: trig})
		return ck, r
	}

	// Sweep 1: the cell persists partial state, then reports a deadline
	// stop.
	ck, r := open(nil)
	_, mask, err := RunCells(context.Background(), r, "exp", []string{"k=1"},
		func(ctx context.Context, i int) (int, error) {
			cell := snapshot.CellFrom(ctx)
			if cell == nil {
				t.Fatal("no cell attached to context")
			}
			if cell.Every() != 100 {
				t.Fatalf("cell cadence %d", cell.Every())
			}
			if err := cell.SaveSystem(state([]byte("partial-state"))); err != nil {
				return 0, err
			}
			return 0, snapshot.ErrStopped
		})
	if err != nil {
		t.Fatal(err)
	}
	if mask[0] {
		t.Fatal("stopped cell marked complete")
	}
	if r.Failed() {
		t.Fatalf("deadline stop recorded as failure: %v", r.Failures()[0])
	}
	if _, ok := ck.SnapshotPath("exp|k=1"); !ok {
		t.Fatal("checkpoint did not record the cell snapshot path")
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Sweep 2: the cell resumes from the saved bytes and completes.
	ck, r = open(nil)
	vals, mask, err := RunCells(context.Background(), r, "exp", []string{"k=1"},
		func(ctx context.Context, i int) (int, error) {
			cell := snapshot.CellFrom(ctx)
			if cell == nil {
				t.Fatal("no cell attached to context")
			}
			st := cell.SystemState()
			if string(st) != "partial-state" {
				t.Fatalf("resumed state %q", st)
			}
			return 99, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !mask[0] || vals[0] != 99 {
		t.Fatalf("resumed cell: ok=%v val=%d", mask[0], vals[0])
	}
	if r.Failed() {
		t.Fatalf("resume failed: %v", r.Failures()[0])
	}
	// Completion discards the cell file and supersedes the snapshot
	// record.
	if _, ok := ck.SnapshotPath("exp|k=1"); ok {
		t.Fatal("snapshot record survived completion")
	}
	if _, err := os.Stat(filepath.Join(snapDir, snapshot.CellFileName("exp|k=1"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cell file not discarded: %v", err)
	}
	_ = ck.Close()
}

// TestRunCellsSkipsAfterTrigger: once the deadline trigger fires, cells
// not yet launched are skipped (resumable) rather than raced through a
// shutdown.
func TestRunCellsSkipsAfterTrigger(t *testing.T) {
	var trig snapshot.Trigger
	trig.Fire()
	r := New(Options{Workers: 1, SnapshotDir: t.TempDir(), SnapshotTrigger: &trig})
	ran := false
	_, mask, err := RunCells(context.Background(), r, "exp", []string{"a", "b"},
		func(ctx context.Context, i int) (int, error) {
			ran = true
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cell ran after the trigger fired")
	}
	if mask[0] || mask[1] {
		t.Fatal("skipped cells marked complete")
	}
	if r.Failed() {
		t.Fatal("skipped cells recorded as failures")
	}
}
