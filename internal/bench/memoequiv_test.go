package bench

// Memo equivalence harness: the epoch-tagged index memo (probe.Memo) is a
// pure cache over hasher.Index, so a memo-on cache and a memo-off cache
// driven with an identical operation stream must be observationally
// indistinguishable — same per-access Results, same Probe answers, same
// snapshot bytes, same stats (minus the memo's own telemetry). The fuzz
// target and the seeded property test below drive twin caches with the
// real PRINCE cipher through interleavings of accesses, flushes, probes,
// forced rekeys (RekeyOnSAE / RemapPeriod on tiny geometries) and
// SaveState/RestoreState round-trips, including *cross* restores (the
// memo-on twin restored from the memo-off twin's blob) to prove the wire
// format carries no memo state at all.

import (
	"bytes"
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/ceaser"
	"mayacache/internal/core"
	"mayacache/internal/mirage"
	"mayacache/internal/prince"
	"mayacache/internal/snapshot"
)

// unmemoizedPrince is the PRINCE randomizer under a type of its own. It
// indexes exactly as the randomizer a nil Hasher selects, but the index
// front memoizes only *prince.Randomizer itself, so a design built with
// it is the memo-off twin of the default build.
type unmemoizedPrince struct{ *prince.Randomizer }

// memoOffPrince is the hasher a nil Hasher would select for skews skews
// of sets sets, without the memo.
func memoOffPrince(skews, sets int, seed uint64) cachemodel.IndexHasher {
	return unmemoizedPrince{prince.NewRandomizer(skews, cachemodel.Log2(sets), seed)}
}

// memoOffTwin builds design as the registry does for cores cores and
// seed, PRINCE-indexed but memo-off, and checks it reports the registry
// build's name and geometry.
func memoOffTwin(t testing.TB, design string, cores int, seed uint64) cachemodel.LLC {
	t.Helper()
	sets := cores * cachemodel.DefaultSetsPerCore
	var (
		twin cachemodel.LLC
		err  error
	)
	switch design {
	case "Maya":
		cfg := core.DefaultConfig(seed)
		cfg.SetsPerSkew = sets
		cfg.Hasher = memoOffPrince(cfg.Skews, sets, seed)
		twin, err = core.NewChecked(cfg)
	case "Mirage":
		cfg := mirage.DefaultConfig(seed)
		cfg.SetsPerSkew = sets
		cfg.Hasher = memoOffPrince(cfg.Skews, sets, seed)
		twin, err = mirage.NewChecked(cfg)
	case "CEASER-S":
		twin, err = ceaser.NewChecked(ceaser.Config{
			Sets: sets, Ways: 16, Variant: ceaser.CEASERS, Seed: seed, Hasher: memoOffPrince(2, sets, seed),
		})
	case "Baseline":
		// Physically indexed: there is no memo to switch off.
		twin, err = baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.SRRIP, Seed: seed})
	default:
		t.Fatalf("no memo-off twin for design %q", design)
	}
	if err != nil {
		t.Fatalf("build memo-off %s: %v", design, err)
	}
	reg, err := cachemodel.Build(design, cachemodel.BuildOptions{Cores: cores, Seed: seed})
	if err != nil {
		t.Fatalf("Build(%q): %v", design, err)
	}
	if twin.Name() != reg.Name() || twin.Geometry() != reg.Geometry() {
		t.Fatalf("memo-off %s is %s %+v, the registry builds %s %+v",
			design, twin.Name(), twin.Geometry(), reg.Name(), reg.Geometry())
	}
	return twin
}

// memoEquivDesigns are the randomized designs that carry a memo; Baseline
// is physically indexed and has none.
var memoEquivDesigns = []string{"Maya", "Mirage", "CEASER-S"}

// stater is the snapshot interface every design implements.
type stater interface {
	SaveState(*snapshot.Encoder)
	RestoreState(*snapshot.Decoder) error
}

// buildMemoEquivLLC builds a deliberately tiny, rekey-happy instance of
// the named design with the real PRINCE cipher: the default randomizer
// (memo on) or its unmemoizedPrince twin. Small sets and a single spare
// way make SAEs — and therefore RekeyOnSAE key refreshes — reachable
// within a few thousand accesses, so the fuzzer exercises the memo's
// epoch-invalidation path, not just warm hits.
func buildMemoEquivLLC(t testing.TB, design string, memo bool) cachemodel.LLC {
	t.Helper()
	const seed = 0xA11CE
	hasher := func(skews, sets int) cachemodel.IndexHasher {
		if memo {
			return nil
		}
		return memoOffPrince(skews, sets, seed)
	}
	var (
		llc cachemodel.LLC
		err error
	)
	switch design {
	case "Maya":
		cfg := core.DefaultConfig(seed)
		cfg.SetsPerSkew = 64
		cfg.InvalidWays = 1
		cfg.RekeyOnSAE = true
		cfg.Hasher = hasher(cfg.Skews, cfg.SetsPerSkew)
		llc, err = core.NewChecked(cfg)
	case "Mirage":
		cfg := mirage.DefaultConfig(seed)
		cfg.SetsPerSkew = 64
		cfg.ExtraWays = 1
		cfg.RekeyOnSAE = true
		cfg.Hasher = hasher(cfg.Skews, cfg.SetsPerSkew)
		llc, err = mirage.NewChecked(cfg)
	case "CEASER-S":
		llc, err = ceaser.NewChecked(ceaser.Config{
			Sets: 128, Ways: 16, Variant: ceaser.CEASERS,
			Seed: seed, RemapPeriod: 400, Hasher: hasher(2, 128),
		})
	default:
		t.Fatalf("unknown memo-equiv design %q", design)
	}
	if err != nil {
		t.Fatalf("build %s: %v", design, err)
	}
	return llc
}

// memoEquivRoundTrip snapshots both twins, requires byte-identical blobs,
// and cross-restores each twin from the *other's* bytes.
func memoEquivRoundTrip(t testing.TB, design string, step int, on, off cachemodel.LLC) {
	t.Helper()
	so, ok := on.(stater)
	if !ok {
		t.Fatalf("%s does not implement SaveState/RestoreState", design)
	}
	sf := off.(stater)
	var eOn, eOff snapshot.Encoder
	so.SaveState(&eOn)
	sf.SaveState(&eOff)
	if !bytes.Equal(eOn.Data(), eOff.Data()) {
		t.Fatalf("%s step %d: snapshot bytes diverge between memo-on (%dB) and memo-off (%dB)",
			design, step, len(eOn.Data()), len(eOff.Data()))
	}
	// Cross-restore: the blob must be interchangeable because it carries
	// no memo state; RestoreState drops any warm memo entries (the hasher
	// epoch is restored, the memo is reset), so the twins keep agreeing.
	dOn := snapshot.NewDecoder(eOff.Data())
	if err := so.RestoreState(dOn); err != nil {
		t.Fatalf("%s step %d: memo-on restore from memo-off blob: %v", design, step, err)
	}
	if err := dOn.Finish(); err != nil {
		t.Fatalf("%s step %d: memo-on restore left decoder dirty: %v", design, step, err)
	}
	dOff := snapshot.NewDecoder(eOn.Data())
	if err := sf.RestoreState(dOff); err != nil {
		t.Fatalf("%s step %d: memo-off restore from memo-on blob: %v", design, step, err)
	}
	if err := dOff.Finish(); err != nil {
		t.Fatalf("%s step %d: memo-off restore left decoder dirty: %v", design, step, err)
	}
}

// driveMemoEquiv interprets program as an operation stream and applies it
// to a memo-on/memo-off twin pair, failing on the first observable
// divergence. It returns the memo-on twin's final stats so callers can
// assert the memo actually saw traffic.
func driveMemoEquiv(t testing.TB, design string, program []byte) cachemodel.Stats {
	t.Helper()
	on := buildMemoEquivLLC(t, design, true)
	off := buildMemoEquivLLC(t, design, false)

	// Deterministic line stream seeded from the program itself (xorshift64).
	s := uint64(len(program))*0x9E3779B97F4A7C15 + 0x1234567
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	const lineMask = 1<<12 - 1 // 4096 lines over ~128 sets: heavy conflict

	for i, op := range program {
		switch {
		case op < 0xE0: // access (the common case)
			a := cachemodel.Access{
				Line: next() & lineMask,
				SDID: op & 3,
				Core: (op >> 2) & 3,
			}
			if op&0x10 != 0 {
				a.Type = cachemodel.Writeback
			}
			ra, rb := on.Access(a), off.Access(a)
			if ra.TagHit != rb.TagHit || ra.DataHit != rb.DataHit || ra.SAE != rb.SAE {
				t.Fatalf("%s step %d: Access(%+v) diverged: memo-on %+v, memo-off %+v", design, i, a, ra, rb)
			}
			if len(ra.Writebacks) != len(rb.Writebacks) {
				t.Fatalf("%s step %d: writeback count diverged: %d vs %d", design, i, len(ra.Writebacks), len(rb.Writebacks))
			}
			for j := range ra.Writebacks {
				if ra.Writebacks[j] != rb.Writebacks[j] {
					t.Fatalf("%s step %d: writeback %d diverged: %+v vs %+v", design, i, j, ra.Writebacks[j], rb.Writebacks[j])
				}
			}
		case op < 0xF0: // flush + probe
			line := next() & lineMask
			if got, want := on.Flush(line, op&3), off.Flush(line, op&3); got != want {
				t.Fatalf("%s step %d: Flush(%#x) diverged: %v vs %v", design, i, line, got, want)
			}
			pl := next() & lineMask
			t1, d1 := on.Probe(pl, 0)
			t2, d2 := off.Probe(pl, 0)
			if t1 != t2 || d1 != d2 {
				t.Fatalf("%s step %d: Probe(%#x) diverged: (%v,%v) vs (%v,%v)", design, i, pl, t1, d1, t2, d2)
			}
		default: // snapshot round-trip mid-stream
			memoEquivRoundTrip(t, design, i, on, off)
		}
	}

	memoEquivRoundTrip(t, design, len(program), on, off)
	son, soff := on.StatsSnapshot(), off.StatsSnapshot()
	if soff.MemoHits != 0 || soff.MemoMisses != 0 {
		t.Fatalf("%s: memo-off twin recorded memo traffic: %d hits, %d misses", design, soff.MemoHits, soff.MemoMisses)
	}
	if son.WithoutMemo() != soff.WithoutMemo() {
		t.Fatalf("%s: stats diverged:\nmemo-on:  %+v\nmemo-off: %+v", design, son.WithoutMemo(), soff.WithoutMemo())
	}
	return son
}

// TestMemoEquivalenceProperty is the seeded property test: a long
// deterministic stream per design, with assertions that the interesting
// machinery (memo traffic, key refreshes) actually fired.
func TestMemoEquivalenceProperty(t *testing.T) {
	for _, design := range memoEquivDesigns {
		t.Run(design, func(t *testing.T) {
			program := make([]byte, 8192)
			g := uint64(0xDECAF000) + uint64(len(design))
			for i := range program {
				g ^= g << 13
				g ^= g >> 7
				g ^= g << 17
				program[i] = byte(g)
			}
			stats := driveMemoEquiv(t, design, program)
			if stats.MemoHits+stats.MemoMisses == 0 {
				t.Errorf("%s: memo saw no traffic; the property run proved nothing", design)
			}
			if stats.Rekeys == 0 {
				t.Errorf("%s: no rekeys fired; epoch invalidation untested (geometry too forgiving?)", design)
			}
		})
	}
}

// FuzzMemoEquivalence lets the fuzzer search for interleavings of
// accesses, flushes, probes, rekeys, and snapshot round-trips that make a
// memoized cache observably different from a direct one.
func FuzzMemoEquivalence(f *testing.F) {
	f.Add(uint8(0), bytes.Repeat([]byte{0x40, 0x51, 0xE2, 0xFF}, 64))
	f.Add(uint8(1), bytes.Repeat([]byte{0x00, 0x30, 0xF7}, 100))
	f.Add(uint8(2), bytes.Repeat([]byte{0x7f, 0xFF, 0x10}, 100))
	f.Fuzz(func(t *testing.T, sel uint8, program []byte) {
		if len(program) > 4096 {
			program = program[:4096]
		}
		driveMemoEquiv(t, memoEquivDesigns[int(sel)%len(memoEquivDesigns)], program)
	})
}
