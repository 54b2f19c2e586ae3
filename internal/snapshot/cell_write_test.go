package snapshot

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestCellOnSaveHoldsNextSave blocks OnSave(1) and checks that the second
// save neither reaches PreSave nor writes until OnSave(1) returns.
func TestCellOnSaveHoldsNextSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), CellFileName("hold"))
	release := make(chan struct{})
	events := make(chan string, 4)
	c, err := OpenCell(CellSpec{
		Path: path,
		PreSave: func(saves int) error {
			events <- fmt.Sprintf("presave %d", saves)
			return nil
		},
		OnSave: func(saves int) {
			events <- fmt.Sprintf("onsave %d", saves)
			if saves == 1 {
				<-release
			}
		},
	}, "hold")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		done <- c.SaveSystem(payload("STATE1"))
		done <- c.SaveSystem(payload("STATE2"))
	}()
	for _, want := range []string{"presave 1", "onsave 1"} {
		if got := <-events; got != want {
			t.Fatalf("event %q, want %q", got, want)
		}
	}
	select {
	case ev := <-events:
		t.Fatalf("%s while OnSave(1) was held", ev)
	case <-time.After(50 * time.Millisecond):
	}
	re, err := OpenCell(CellSpec{Path: path}, "hold")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.SystemState()); got != "STATE1" {
		t.Fatalf("file holds %q while OnSave(1) is held, want STATE1", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"presave 2", "onsave 2"} {
		if got := <-events; got != want {
			t.Fatalf("event %q, want %q", got, want)
		}
	}
}

// TestCellOnSavePanicFailsSave turns a panicking hook into the save's
// error, reported once, instead of a crash.
func TestCellOnSavePanicFailsSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), CellFileName("panic"))
	c, err := OpenCell(CellSpec{Path: path, OnSave: func(int) { panic("hook exploded") }}, "panic")
	if err != nil {
		t.Fatal(err)
	}
	err = c.SaveSystem(payload("STATE1"))
	if err == nil {
		err = c.Wait()
	}
	if err == nil {
		t.Fatal("a panicking OnSave reported no error")
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("the panic was reported twice: %v", err)
	}
}
