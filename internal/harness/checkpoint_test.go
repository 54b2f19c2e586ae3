package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type cellVal struct {
	WS   float64 `json:"ws"`
	MPKI float64 `json:"mpki"`
}

func TestCheckpointRoundTripAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want := cellVal{WS: 1.2345678901234567, MPKI: 21.5}
	if err := ck.Record("fig9|bench=mcf", want); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("fig9|bench=lbm", cellVal{WS: 2, MPKI: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ck2.Close() }()
	var got cellVal
	hit, err := ck2.Lookup("fig9|bench=mcf", &got)
	if err != nil || !hit {
		t.Fatalf("lookup: hit=%v err=%v", hit, err)
	}
	if got != want {
		t.Fatalf("value changed across reopen: %+v != %+v", got, want)
	}
	if hit, _ := ck2.Lookup("fig9|bench=absent", &got); hit {
		t.Fatal("phantom hit")
	}
	if keys := ck2.Keys(); len(keys) != 2 || keys[0] != "fig9|bench=lbm" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestCheckpointToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop the final record in half.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("truncated tail must load: %v", err)
	}
	defer func() { _ = ck2.Close() }()
	var v int
	if hit, _ := ck2.Lookup("a", &v); !hit || v != 1 {
		t.Fatalf("intact record lost: hit=%v v=%d", hit, v)
	}
	if hit, _ := ck2.Lookup("b", &v); hit {
		t.Fatal("truncated record should be dropped")
	}
	// Appending after a truncated load keeps the file loadable (and the
	// header is not duplicated).
	if err := ck2.Record("c", 3); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	ck3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("reload after re-append: %v", err)
	}
	defer func() { _ = ck3.Close() }()
	if hit, _ := ck3.Lookup("c", &v); !hit || v != 3 {
		t.Fatalf("appended record lost: hit=%v v=%d", hit, v)
	}
}

func TestCheckpointRejectsForeignFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-checkpoint")
	if err := os.WriteFile(path, []byte("benchmark,ws\nmcf,1.2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
		t.Fatalf("foreign file accepted: %v", err)
	}
}

func TestCheckpointHeaderSurvivesEmptyRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	// First run writes a header and one record; simulate a header-only
	// file (crash after header) by truncating past the first newline.
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := strings.IndexByte(string(raw), '\n')
	if err := os.WriteFile(path, raw[:nl+1], 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Record("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	ck3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("file with re-appended records must load: %v", err)
	}
	defer func() { _ = ck3.Close() }()
	if ck3.Len() != 1 {
		t.Fatalf("len = %d, want 1", ck3.Len())
	}
}

// A closed file-backed checkpoint refuses records instead of keeping
// them in memory only; an in-memory checkpoint has no file and keeps
// accepting them.
func TestClosedCheckpointRefusesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("b", 2); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Record after Close = %v, want a closed-checkpoint error", err)
	}
	if err := ck.Sync(); err == nil {
		t.Fatal("Sync after Close succeeded")
	}
	if ck.Has("b") {
		t.Fatal("a refused record is served from memory")
	}
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ck2.Close() }()
	if !ck2.Has("a") || ck2.Has("b") || ck2.Len() != 1 {
		t.Fatalf("reopened checkpoint holds %v, want only a", ck2.Keys())
	}

	mem := NewMemCheckpoint()
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Record("c", 3); err != nil || !mem.Has("c") {
		t.Fatalf("in-memory Record after Close = %v", err)
	}
	if err := mem.Sync(); err != nil {
		t.Fatalf("in-memory Sync = %v", err)
	}
}
