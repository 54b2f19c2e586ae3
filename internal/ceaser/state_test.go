package ceaser

import (
	"bytes"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

func driveAccesses(llc cachemodel.LLC, r *rng.Rand, n int) {
	for i := 0; i < n; i++ {
		t := cachemodel.Read
		if r.Bool(0.2) {
			t = cachemodel.Writeback
		}
		llc.Access(cachemodel.Access{
			Line: r.Uint64n(8192),
			SDID: uint8(r.Intn(2)),
			Core: uint8(r.Intn(2)),
			Type: t,
		})
	}
}

// TestCeaserStateRoundTrip covers all three variants with remapping
// enabled, so the saved state includes a nonzero hasher epoch and a
// mid-period fill count — both must survive the round trip for the
// continuation to remap at the same access the original does.
func TestCeaserStateRoundTrip(t *testing.T) {
	for _, variant := range []Variant{CEASER, CEASERS, ScatterCache} {
		t.Run(variant.String(), func(t *testing.T) {
			cfg := Config{Sets: 128, Ways: 8, Variant: variant, RemapPeriod: 3000, Seed: 31}
			orig := mustNew(cfg)
			driveAccesses(orig, rng.New(8), 20000)
			if orig.StatsSnapshot().Rekeys == 0 {
				t.Fatal("test did not exercise remapping")
			}

			var e snapshot.Encoder
			orig.SaveState(&e)
			if got, want := len(e.Data()), orig.StateBound(); got != want {
				t.Fatalf("SaveState wrote %d bytes, StateBound is %d", got, want)
			}
			fresh := mustNew(cfg)
			if err := fresh.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}

			driveAccesses(orig, rng.New(14), 20000)
			driveAccesses(fresh, rng.New(14), 20000)
			// Memo telemetry is process-local (cold memo after restore).
			if orig.StatsSnapshot().WithoutMemo() != fresh.StatsSnapshot().WithoutMemo() {
				t.Fatalf("stats diverged:\n orig %+v\nfresh %+v", orig.StatsSnapshot(), fresh.StatsSnapshot())
			}
			var eo, ef snapshot.Encoder
			orig.SaveState(&eo)
			fresh.SaveState(&ef)
			if !bytes.Equal(eo.Data(), ef.Data()) {
				t.Fatal("encoded states diverged after resume")
			}
		})
	}
}

// TestCeaserRestoreRejectsDamage checks truncation and geometry mismatch
// fail without panicking.
func TestCeaserRestoreRejectsDamage(t *testing.T) {
	cfg := Config{Sets: 64, Ways: 8, Variant: CEASERS, Seed: 31}
	orig := mustNew(cfg)
	driveAccesses(orig, rng.New(8), 3000)
	var e snapshot.Encoder
	orig.SaveState(&e)
	data := e.Data()
	for _, n := range []int{0, 16, len(data) / 2, len(data) - 1} {
		if err := mustNew(cfg).RestoreState(snapshot.NewDecoder(data[:n])); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	other := cfg
	other.Sets = 128
	if err := mustNew(other).RestoreState(snapshot.NewDecoder(data)); err == nil {
		t.Fatal("foreign geometry accepted")
	}
}
