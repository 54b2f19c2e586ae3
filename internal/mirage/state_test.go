package mirage

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

func driveAccesses(llc cachemodel.LLC, r *rng.Rand, n int) {
	for i := 0; i < n; i++ {
		t := cachemodel.Read
		if r.Bool(0.3) {
			t = cachemodel.Writeback
		}
		llc.Access(cachemodel.Access{
			Line: r.Uint64n(4096),
			SDID: uint8(r.Intn(2)),
			Core: uint8(r.Intn(2)),
			Type: t,
		})
	}
}

// TestMirageStateRoundTrip mirrors the Maya round-trip test: save at an
// interior state, restore into a fresh instance, continue both, and
// require identical stats and identical re-encoded state.
func TestMirageStateRoundTrip(t *testing.T) {
	orig := mustNew(smallConfig(11))
	driveAccesses(orig, rng.New(5), 20000)

	var e snapshot.Encoder
	orig.SaveState(&e)
	fresh := mustNew(smallConfig(11))
	if err := fresh.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := fresh.Audit(); err != nil {
		t.Fatalf("restored state fails audit: %v", err)
	}

	driveAccesses(orig, rng.New(42), 20000)
	driveAccesses(fresh, rng.New(42), 20000)
	// Memo telemetry is process-local (cold memo after restore); mask it.
	if orig.StatsSnapshot().WithoutMemo() != fresh.StatsSnapshot().WithoutMemo() {
		t.Fatalf("stats diverged after resume:\n orig %+v\nfresh %+v", orig.StatsSnapshot(), fresh.StatsSnapshot())
	}
	var eo, ef snapshot.Encoder
	orig.SaveState(&eo)
	fresh.SaveState(&ef)
	if !bytes.Equal(eo.Data(), ef.Data()) {
		t.Fatal("encoded states diverged after resume")
	}
}

// TestMirageRestoreRejectsDamage checks that truncations, tag records the
// cache cannot have written and a different geometry are refused without
// panicking.
func TestMirageRestoreRejectsDamage(t *testing.T) {
	orig := mustNew(smallConfig(11))
	driveAccesses(orig, rng.New(5), 5000)
	var e snapshot.Encoder
	orig.SaveState(&e)
	data := e.Data()
	// record is tag ti's 17-byte wire record, which follows the RNG, the
	// key epoch, the stats and the tag count.
	var head snapshot.Encoder
	head.RNG(orig.r)
	orig.st.Front.SaveState(&head)
	orig.stats.SaveState(&head)
	head.Count(len(orig.tags))
	record := func(b []byte, ti int) []byte { return b[len(head.Data())+17*ti:] }
	invalid := slices.IndexFunc(orig.tags, func(e tagEntry) bool { return e.fptr < 0 })
	valid := slices.IndexFunc(orig.tags, func(e tagEntry) bool { return e.fptr >= 0 })

	for _, c := range []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return b[:0] }},
		{"truncated to 8 bytes", func(b []byte) []byte { return b[:8] }},
		{"truncated to half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"last byte missing", func(b []byte) []byte { return b[:len(b)-1] }},
		{"invalid tag with a line", func(b []byte) []byte { record(b, invalid)[0] = 1; return b }},
		{"invalid tag with an SDID", func(b []byte) []byte { record(b, invalid)[12] = 1; return b }},
		{"valid tag with valid byte 0", func(b []byte) []byte { record(b, valid)[14] = 0; return b }},
		{"invalid tag with valid byte 1", func(b []byte) []byte { record(b, invalid)[14] = 1; return b }},
	} {
		err := mustNew(smallConfig(11)).RestoreState(snapshot.NewDecoder(c.damage(slices.Clone(data))))
		var corrupt *snapshot.CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: restore returned %v, want a *snapshot.CorruptError", c.name, err)
		}
	}
	other := smallConfig(11)
	other.BaseWays++
	if err := mustNew(other).RestoreState(snapshot.NewDecoder(data)); err == nil {
		t.Fatal("foreign geometry accepted")
	}
}
