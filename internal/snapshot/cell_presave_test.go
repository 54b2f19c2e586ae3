package snapshot

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestCellPreSave proves the PreSave hook gates durability: an error
// aborts the write before anything reaches disk, the save count does not
// advance, and a later save (the injected fault cleared) persists the
// current state as if the failure never happened.
func TestCellPreSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), CellFileName("presave"))
	injected := errors.New("disk full (injected)")
	var fail bool
	var ordinals []int
	c, err := OpenCell(CellSpec{
		Path: path,
		PreSave: func(saves int) error {
			ordinals = append(ordinals, saves)
			if fail {
				return injected
			}
			return nil
		},
	}, "presave")
	if err != nil {
		t.Fatal(err)
	}

	if err := c.SaveSystem([]byte("state-1")); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	if c.Saves() != 1 {
		t.Fatalf("saves = %d, want 1", c.Saves())
	}

	fail = true
	if err := c.SaveSystem([]byte("state-2")); !errors.Is(err, injected) {
		t.Fatalf("save 2 = %v, want injected error", err)
	}
	if c.Saves() != 1 {
		t.Fatalf("failed save advanced count to %d", c.Saves())
	}
	// The aborted state never reached disk: a fresh open still sees state-1.
	re, err := OpenCell(CellSpec{Path: path}, "presave")
	if err != nil {
		t.Fatal(err)
	}
	if got := re.SystemState(); string(got) != "state-1" {
		t.Fatalf("on-disk state after aborted save = %q, want state-1", got)
	}

	fail = false
	if err := c.SaveSystem([]byte("state-3")); err != nil {
		t.Fatalf("save 3: %v", err)
	}
	if c.Saves() != 2 {
		t.Fatalf("saves = %d, want 2", c.Saves())
	}
	// Every attempt saw the ordinal of the save it was about to make.
	want := []int{1, 2, 2}
	if len(ordinals) != len(want) {
		t.Fatalf("ordinals = %v, want %v", ordinals, want)
	}
	for i := range want {
		if ordinals[i] != want[i] {
			t.Fatalf("ordinals = %v, want %v", ordinals, want)
		}
	}
}
