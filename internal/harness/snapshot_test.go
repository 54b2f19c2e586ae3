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

// TestCheckpointLegacySnapshotLines: a checkpoint written by an older
// version holds a "snapshot" line (a stopped cell's state-file path, no
// value) beside its value lines. It still opens and serves the values,
// the snapshot line is not served as a value, and appends still work.
func TestCheckpointLegacySnapshotLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	legacy := `{"format":"maya-checkpoint","version":1}
{"key":"exp|cell=1","snapshot":"snaps/cell-a.snap"}
{"key":"exp|cell=2","value":42}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("opening a checkpoint with a legacy snapshot line: %v", err)
	}
	var v int
	if hit, err := ck.Lookup("exp|cell=2", &v); err != nil || !hit || v != 42 {
		t.Fatalf("value beside a legacy snapshot line: hit=%v err=%v v=%d", hit, err, v)
	}
	if hit, err := ck.Lookup("exp|cell=1", &v); err != nil || hit {
		t.Fatalf("legacy snapshot line served as a value: hit=%v err=%v", hit, err)
	}
	if got := ck.Keys(); len(got) != 1 || got[0] != "exp|cell=2" {
		t.Fatalf("keys %v, want only the value line's", got)
	}
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
	if hit, err := ck.Lookup("exp|cell=1", &v); err != nil || !hit || v != 7 {
		t.Fatalf("value recorded after a legacy snapshot line: hit=%v err=%v v=%d", hit, err, v)
	}
}

// TestRunCellsMidCellResume drives the harness's cell-snapshot protocol
// without a simulator: the first sweep's cell saves state and stops with
// ErrStopped (a deadline stop), the second sweep finds the cell's state
// file by its name under the snapshot directory and resumes from the
// saved state. The checkpoint records nothing for the stopped cell.
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
	if ck.Len() != 0 {
		t.Fatalf("checkpoint holds %v for a stopped cell", ck.Keys())
	}
	if _, err := os.Stat(filepath.Join(snapDir, snapshot.CellFileName("exp|k=1"))); err != nil {
		t.Fatalf("stopped cell's state file: %v", err)
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
	// Completion discards the cell file.
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
