package core

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

// TestMayaStateRoundTrip drives a Maya cache to an interior state, saves,
// restores into a fresh instance, and requires the two to stay in
// lockstep: identical stats and identical re-encoded state after a long
// shared continuation. Encoded-state equality is the strongest check —
// it covers the RNG words, the dense list order, and every tag bit.
func TestMayaStateRoundTrip(t *testing.T) {
	orig := mustNew(smallConfig(7))
	driveAccesses(orig, rng.New(99), 20000)

	var e snapshot.Encoder
	orig.SaveState(&e)
	fresh := mustNew(smallConfig(7))
	if err := fresh.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := fresh.Audit(); err != nil {
		t.Fatalf("restored state fails audit: %v", err)
	}

	driveAccesses(orig, rng.New(1234), 20000)
	driveAccesses(fresh, rng.New(1234), 20000)
	// Memo hit/miss telemetry is process-local (the restored cache
	// restarts with a cold memo), so mask it: everything else must match.
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

// TestMayaRestoreRejectsDamage checks that truncations, tag records the
// cache cannot have written and a different geometry produce errors,
// never panics, and leave no audit-invalid state in use.
func TestMayaRestoreRejectsDamage(t *testing.T) {
	orig := mustNew(smallConfig(7))
	driveAccesses(orig, rng.New(3), 5000)
	var e snapshot.Encoder
	orig.SaveState(&e)
	data := e.Data()
	// record is tag ti's 21-byte wire record, which follows the RNG, the
	// key epoch, the stats and the tag count.
	var head snapshot.Encoder
	head.RNG(orig.r)
	orig.st.Front.SaveState(&head)
	orig.stats.SaveState(&head)
	head.Count(len(orig.tags))
	record := func(b []byte, ti int) []byte { return b[len(head.Data())+21*ti:] }
	invalid := slices.IndexFunc(orig.tags, func(e tagEntry) bool { return e.state == stInvalid })

	for _, c := range []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return b[:0] }},
		{"truncated to 1 byte", func(b []byte) []byte { return b[:1] }},
		{"truncated to 8 bytes", func(b []byte) []byte { return b[:8] }},
		{"truncated to 32 bytes", func(b []byte) []byte { return b[:32] }},
		{"truncated to half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"last byte missing", func(b []byte) []byte { return b[:len(b)-1] }},
		{"invalid tag with a line", func(b []byte) []byte { record(b, invalid)[0] = 1; return b }},
		{"invalid tag with an SDID", func(b []byte) []byte { record(b, invalid)[16] = 1; return b }},
	} {
		err := mustNew(smallConfig(7)).RestoreState(snapshot.NewDecoder(c.damage(slices.Clone(data))))
		var corrupt *snapshot.CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: restore returned %v, want a *snapshot.CorruptError", c.name, err)
		}
	}
	other := smallConfig(7)
	other.SetsPerSkew = 128
	if err := mustNew(other).RestoreState(snapshot.NewDecoder(data)); err == nil {
		t.Fatal("foreign geometry accepted")
	}
}
