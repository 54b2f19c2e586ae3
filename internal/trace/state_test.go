package trace

import (
	"testing"

	"mayacache/internal/snapshot"
)

// TestGenStateRoundTrip saves a generator mid-stream (including partway
// through a line-repeat burst) and requires the restored generator to
// produce the identical event stream.
func TestGenStateRoundTrip(t *testing.T) {
	p := Profile{
		Name: "rt", Suite: "SPEC", MemRatio: 0.4, WriteRatio: 0.3,
		WHot: 1, WMed: 1, WScan: 1, WStream: 1, WRand: 1, WStride: 1,
		HotLines: 64, MedLines: 4096, ScanLines: 512, RandLines: 1 << 20,
		StrideLines: 16, StrideCount: 128, MedZipf: 0.9, LineRepeat: 4,
	}
	orig := testGen(t, p, 1, 77)
	for i := 0; i < 10007; i++ { // odd count: stop inside a repeat burst
		orig.Next()
	}

	var e snapshot.Encoder
	orig.(snapshot.Stateful).SaveState(&e)
	if got, want := len(e.Data()), orig.(snapshot.Stateful).StateBound(); got != want {
		t.Fatalf("SaveState wrote %d bytes, StateBound is %d", got, want)
	}
	fresh := testGen(t, p, 1, 77)
	if err := fresh.(snapshot.Stateful).RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for i := 0; i < 20000; i++ {
		if orig.Next() != fresh.Next() {
			t.Fatalf("event stream diverged at %d", i)
		}
	}
}

// TestGenRestoreRejectsDamage checks out-of-range walk positions and
// truncations are refused.
func TestGenRestoreRejectsDamage(t *testing.T) {
	p := Profile{
		Name: "rt", Suite: "SPEC", MemRatio: 0.5,
		WHot: 1, WScan: 1, HotLines: 64, ScanLines: 512, LineRepeat: 2,
	}
	g := testGen(t, p, 0, 1)
	var e snapshot.Encoder
	g.(snapshot.Stateful).SaveState(&e)
	data := e.Data()
	for _, n := range []int{0, 8, len(data) - 1} {
		if err := testGen(t, p, 0, 1).(snapshot.Stateful).RestoreState(snapshot.NewDecoder(data[:n])); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// Corrupt scanPos beyond ScanLines (bytes 32..39 little-endian).
	bad := append([]byte(nil), data...)
	bad[32], bad[33] = 0xff, 0xff
	if err := testGen(t, p, 0, 1).(snapshot.Stateful).RestoreState(snapshot.NewDecoder(bad)); err == nil {
		t.Fatal("out-of-range scanPos accepted")
	}
}
