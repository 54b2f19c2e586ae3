package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mayacache/internal/snapshot"
)

// state is SaveSystem's bound and callback for a System state of p
// verbatim.
func state(p []byte) (int, func(*snapshot.Encoder) error) {
	return len(p), func(e *snapshot.Encoder) error {
		copy(e.Record(len(p)), p)
		return nil
	}
}

// TestWriteFileAtomic: every durable save of an attempt replaces the
// cell's state file whole — it decodes, with no temp litter beside it —
// and the next attempt resumes from the last save.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	a := Attempt{Key: "exp|cell=1", Path: filepath.Join(dir, "cell.snap")}
	for save := byte(1); save <= 3; save++ {
		res := RunAttempt(context.Background(), a, func(ctx context.Context) (int, error) {
			cell := snapshot.CellFrom(ctx)
			if got := cell.SystemState(); save > 1 && (len(got) != 1 || got[0] != save-1) {
				t.Errorf("attempt %d resumed state %v, want the previous save", save, got)
			}
			return 0, cell.SaveSystem(state([]byte{save}))
		})
		data, err := os.ReadFile(a.Path)
		if res.Outcome != Succeeded || err != nil {
			t.Fatalf("save %d: outcome %v (%v), read %v", save, res.Outcome, res.Err, err)
		}
		if _, err := snapshot.Decode(data); err != nil {
			t.Fatalf("save %d left a torn state file: %v", save, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("save %d: state dir holds %v (%v), want the cell file alone", save, entries, err)
		}
	}
}

// TestWriteFileAtomicMissingDir: a save into a missing state directory
// fails the attempt with the write error and leaves no file.
func TestWriteFileAtomicMissingDir(t *testing.T) {
	a := Attempt{Key: "exp|cell=1", Path: filepath.Join(t.TempDir(), "nope", "cell.snap")}
	res := RunAttempt(context.Background(), a, func(ctx context.Context) (int, error) {
		return 0, snapshot.CellFrom(ctx).SaveSystem(state([]byte("x")))
	})
	if res.Outcome != Failed || res.Err == nil {
		t.Fatalf("outcome %v (%v), want Failed with the write error", res.Outcome, res.Err)
	}
	if _, err := os.Stat(a.Path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("state file after a failed save: %v", err)
	}
}
