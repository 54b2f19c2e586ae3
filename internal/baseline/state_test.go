package baseline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
			Line: r.Uint64n(8192),
			SDID: uint8(r.Intn(2)),
			Core: uint8(r.Intn(2)),
			Type: t,
		})
	}
}

// TestSetAssocStateRoundTrip covers every replacement policy: the policy
// metadata (LRU stamps, RRPVs, PSEL) and the shared policy RNG must all
// survive a save/restore so the continuation stays in lockstep.
func TestSetAssocStateRoundTrip(t *testing.T) {
	for _, kind := range []ReplacementKind{LRU, SRRIP, BRRIP, DRRIP, RandomRepl} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Sets: 128, Ways: 8, Replacement: kind, Seed: 21}
			orig := mustNew(cfg)
			driveAccesses(orig, rng.New(77), 20000)

			var e snapshot.Encoder
			orig.SaveState(&e)
			if got, want := len(e.Data()), orig.StateBound(); got != want {
				t.Fatalf("SaveState wrote %d bytes, StateBound is %d", got, want)
			}
			fresh := mustNew(cfg)
			if err := fresh.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}

			driveAccesses(orig, rng.New(13), 20000)
			driveAccesses(fresh, rng.New(13), 20000)
			if orig.StatsSnapshot() != fresh.StatsSnapshot() {
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

// TestSetAssocRestoreRejectsDamage checks truncation, out-of-range RRPVs,
// foreign geometry and an LRU clock that could wrap all fail
// structurally.
func TestSetAssocRestoreRejectsDamage(t *testing.T) {
	cfg := Config{Sets: 64, Ways: 4, Replacement: SRRIP, Seed: 21}
	orig := mustNew(cfg)
	driveAccesses(orig, rng.New(7), 3000)
	var e snapshot.Encoder
	orig.SaveState(&e)
	data := e.Data()

	for _, n := range []int{0, 16, len(data) / 2, len(data) - 1} {
		if err := mustNew(cfg).RestoreState(snapshot.NewDecoder(data[:n])); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// The final byte is the last RRPV; force it out of the 2-bit range.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] = 9
	if err := mustNew(cfg).RestoreState(snapshot.NewDecoder(bad)); err == nil {
		t.Fatal("out-of-range rrpv accepted")
	}
	other := cfg
	other.Sets = 128
	if err := mustNew(other).RestoreState(snapshot.NewDecoder(data)); err == nil {
		t.Fatal("foreign geometry accepted")
	}

	// An LRU state ends with its clock, the stamp count and the stamps.
	// Stamps 2^64-4 … 2^64-1 under clock 2^64-1 are none ahead of the
	// clock, but the next touch would wrap it and stamp a way 0.
	lru := Config{Sets: 1, Ways: 4, Replacement: LRU, Seed: 21}
	var le snapshot.Encoder
	mustNew(lru).SaveState(&le)
	wrap := le.Data()
	tail := wrap[len(wrap)-(8+4+4*8):]
	if n := binary.LittleEndian.Uint32(tail[8:]); n != 4 {
		t.Fatalf("LRU state layout: stamp count %d, want 4", n)
	}
	binary.LittleEndian.PutUint64(tail, math.MaxUint64)
	for w := range 4 {
		binary.LittleEndian.PutUint64(tail[12+8*w:], math.MaxUint64-3+uint64(w))
	}
	if err := mustNew(lru).RestoreState(snapshot.NewDecoder(wrap)); err == nil {
		t.Fatal("LRU clock 2^64-1 accepted")
	}
}

// TestPoliciesImplementStateCodec is a compile-time style guard that every
// ReplacementKind constructs a policy with working save/restore (a newly
// added policy must extend the codec to pass).
func TestPoliciesImplementStateCodec(t *testing.T) {
	for _, kind := range []ReplacementKind{LRU, SRRIP, BRRIP, DRRIP, RandomRepl} {
		p := newPolicy(kind, 16, 4, rng.New(1))
		var e snapshot.Encoder
		p.saveState(&e)
		q := newPolicy(kind, 16, 4, rng.New(1))
		d := snapshot.NewDecoder(e.Data())
		q.restoreState(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		_ = fmt.Sprintf("%v", p.kind())
	}
}
