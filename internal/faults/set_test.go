package faults

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mayacache/internal/harness"
	"mayacache/internal/snapshot"
)

func mustParse(t *testing.T, specs ...string) Set {
	t.Helper()
	s, err := Parse(specs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParse covers every fault kind, the site it fires at, and every
// malformed spec.
func TestParse(t *testing.T) {
	good := []struct {
		spec string
		site Site
	}{
		{"panic:cores=8", PreRun},
		{"error:bench=mcf", PreRun},
		{"transient:bench=mcf", PreRun},
		{"transient:bench=mcf:100", PreRun},
		{"slowtenant:hog:60s", PreRun},
		{"snapfail:s000001:2", PreSave},
		{"killsnap:cores=16:4", Save},
		{"distkill:bench=mcf:2", Save},
		{"distdrop:bench=lbm:1", RPC},
		{"distdelay:bench=:5ms", RPC},
	}
	for _, g := range good {
		s, err := Parse([]string{g.spec})
		if err != nil {
			t.Errorf("Parse(%q): %v", g.spec, err)
			continue
		}
		if err := s.Within(g.site); err != nil {
			t.Errorf("%q: %v", g.spec, err)
		}
		if err := s.Within(^g.site); err == nil || !strings.Contains(err.Error(), g.spec) {
			t.Errorf("%q outside its site: %v", g.spec, err)
		}
	}
	for _, bad := range []string{
		"", "panic", "panic:", "nope:x", "panic:x:1", "error:x:y",
		"transient:x:zero", "transient:x:0",
		"slowtenant::1s", "slowtenant:acme", "slowtenant:acme:", "slowtenant:acme:fast", "slowtenant:acme:-1s",
		"snapfail::1", "snapfail:x", "snapfail:x:0", "snapfail:x:zero",
		"killsnap:", "killsnap:x", "killsnap::3", "killsnap:x:0", "killsnap:x:-1", "killsnap:x:abc",
		"distkill:mcf", "distkill::2", "distkill:mcf:0", "distdrop:mcf:x",
		"distdelay:mcf:fast", "distdelay:mcf:-1s", "distfoo:mcf:1",
	} {
		if _, err := Parse([]string{"panic:ok", bad}); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
	if s, err := Parse(nil); err != nil || len(s) != 0 || s.Within(0) != nil {
		t.Fatalf("empty spec list: %v, %v", s, err)
	}
}

// TestParseHookSpecs: the pre-run kinds fail, panic, and retry-fail
// exactly the matching cells.
func TestParseHookSpecs(t *testing.T) {
	ctx := context.Background()
	s := mustParse(t, "error:bench=mcf")
	if err := s.PreRun(ctx, "fig9|bench=lbm|seed=1"); err != nil {
		t.Fatalf("non-matching cell failed: %v", err)
	}
	if err := s.PreRun(ctx, "fig9|bench=mcf|seed=1"); !errors.Is(err, ErrInjected) || harness.IsTransient(err) {
		t.Fatalf("matching cell: %v", err)
	}

	s = mustParse(t, "panic:cell=1")
	if err := harness.Recover(func() error { return s.PreRun(ctx, "exp|cell=1") }); !errors.Is(err, ErrInjected) {
		t.Fatalf("panic fault through Recover: %v", err)
	}

	s = mustParse(t, "transient:cell=2:2")
	for i := 0; i < 2; i++ {
		if err := s.PreRun(ctx, "exp|cell=2"); !harness.IsTransient(err) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if err := s.PreRun(ctx, "exp|cell=2"); err != nil {
		t.Fatalf("third attempt should pass: %v", err)
	}
	if err := s.PreRun(ctx, "exp|cell=3"); err != nil {
		t.Fatalf("other cell affected: %v", err)
	}
}

// TestParseServeSlowTenant: slowtenant stalls only attempts whose key
// names the exact tenant, and a deadline ends the stall.
func TestParseServeSlowTenant(t *testing.T) {
	s := mustParse(t, "slowtenant:acme:150ms")
	start := time.Now()
	if err := s.PreRun(context.Background(), "serve|s000001|acme|design=Maya"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("acme stalled %v, want >= 150ms", d)
	}
	start = time.Now()
	for _, key := range []string{"serve|s000002|acme2|design=Maya", "serve|s000003|other|design=Maya"} {
		if err := s.PreRun(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("other tenants stalled %v", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := mustParse(t, "slowtenant:acme:1h").PreRun(ctx, "serve|s000001|acme"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall under a deadline: %v", err)
	}
	if err := s.PreSave("serve|s000001|acme", 1); err != nil || s.OnSave("serve|s000001|acme", 1) {
		t.Fatal("slowtenant fired at a save site")
	}
}

// TestParseServeSnapfail: snapfail fails exactly the configured save
// ordinal of matching cells.
func TestParseServeSnapfail(t *testing.T) {
	s := mustParse(t, "snapfail:s000002:3")
	if err := s.PreSave("serve|s000002|acme", 2); err != nil {
		t.Fatalf("save 2 failed early: %v", err)
	}
	if err := s.PreSave("serve|s000002|acme", 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("save 3 = %v, want ErrInjected", err)
	}
	if err := s.PreSave("serve|s000001|acme", 3); err != nil {
		t.Fatalf("non-matching key failed: %v", err)
	}
	if err := s.PreSave("serve|s000002|acme", 4); err != nil {
		t.Fatalf("save 4 failed: only the configured ordinal should: %v", err)
	}
	if err := s.PreRun(context.Background(), "serve|s000002|acme"); err != nil {
		t.Fatalf("snapfail fired before the run: %v", err)
	}
}

// TestKillOnSaveFiresOnceAtThreshold: a kill fires exactly once, only
// for keys containing the substring, and only at or after save n.
func TestKillOnSaveFiresOnceAtThreshold(t *testing.T) {
	s := mustParse(t, "killsnap:fig9:3")
	kills := 0
	for _, save := range []struct {
		key string
		n   int
	}{{"fig9|bench=mcf", 1}, {"fig9|bench=mcf", 2}, {"fig1|bench=mcf", 9}, {"fig9|bench=mcf", 3},
		{"fig9|bench=mcf", 4}, {"fig9|bench=xz", 3}} {
		if s.OnSave(save.key, save.n) {
			kills++
			if save.key != "fig9|bench=mcf" || save.n != 3 {
				t.Fatalf("killed at %s save %d, want fig9|bench=mcf save 3", save.key, save.n)
			}
		}
	}
	if kills != 1 {
		t.Fatalf("kills = %d, want exactly 1", kills)
	}
}

// TestKillOnSaveIgnoresOtherSpecs: faults of other kinds never kill.
func TestKillOnSaveIgnoresOtherSpecs(t *testing.T) {
	s := mustParse(t, "panic:fig9", "error:mcf", "transient:a:2", "snapfail:fig9:1", "distdrop:fig9:1", "distdelay:fig9:1ms")
	for n := 1; n <= 3; n++ {
		if s.OnSave("fig9|bench=mcf|a", n) {
			t.Fatalf("save %d killed under non-kill faults", n)
		}
	}
}

// recordKill records the save a kill fault fires on instead of letting
// the runtime SIGKILL the test binary.
type recordKill struct {
	Set
	killedAt *int
}

func (r recordKill) OnSave(key string, saves int) bool {
	if r.Set.OnSave(key, saves) {
		*r.killedAt = saves
	}
	return false
}

// state is SaveSystem's bound and callback for a System state of the one
// byte b.
func state(b byte) (int, func(*snapshot.Encoder) error) {
	return 1, func(e *snapshot.Encoder) error {
		e.U8(b)
		return nil
	}
}

// TestKillOnSaveThroughHarness wires a kill fault the way mayasim does —
// harness Options.Faults — and checks it observes the cell's durable
// saves with the cell key and count, firing on the second.
func TestKillOnSaveThroughHarness(t *testing.T) {
	killedAt := 0
	r := harness.New(harness.Options{
		Workers:     1,
		SnapshotDir: t.TempDir(),
		Faults:      recordKill{mustParse(t, "killsnap:k=1:2"), &killedAt},
	})
	_, _, err := harness.RunCells(context.Background(), r, "exp", []string{"k=1"},
		func(ctx context.Context, i int) (int, error) {
			cell := snapshot.CellFrom(ctx)
			if cell == nil {
				t.Fatal("no cell on context")
			}
			for s := 1; s <= 3; s++ {
				if err := cell.SaveSystem(state(byte(s))); err != nil {
					return 0, err
				}
			}
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("cell failed: %v", r.Failures()[0])
	}
	if killedAt != 2 {
		t.Fatalf("kill fired at save %d, want 2", killedAt)
	}
}

// TestDistKillOnceSemantics: runtimes sharing one Set share its kill —
// whichever reaches the ordinal first dies, and no one after it.
func TestDistKillOnceSemantics(t *testing.T) {
	fleet := mustParse(t, "distkill:mcf:2")
	workers := []harness.Faults{fleet, fleet, fleet}
	if workers[0].OnSave("cell|bench=mcf", 1) || workers[1].OnSave("cell|bench=lbm", 5) {
		t.Fatal("killed before the ordinal or a non-matching cell")
	}
	if !workers[1].OnSave("cell|bench=mcf", 2) {
		t.Fatal("did not kill at the ordinal")
	}
	for _, w := range workers {
		if w.OnSave("cell|bench=mcf", 3) {
			t.Fatal("killed twice")
		}
	}
}

// TestDistDropCountdown: distdrop blackholes the first n matching RPCs.
func TestDistDropCountdown(t *testing.T) {
	s := mustParse(t, "distdrop:mcf:2")
	if s.Drop("bench=lbm") {
		t.Fatal("dropped non-matching RPC")
	}
	if !s.Drop("bench=mcf") || !s.Drop("bench=mcf") {
		t.Fatal("first two matching RPCs not dropped")
	}
	if s.Drop("bench=mcf") {
		t.Fatal("dropped past the budget")
	}
}

// TestDistDelayAndNilSafety: distdelay stalls matching heartbeats by the
// longest configured delay, and the empty Set is inert at every site.
func TestDistDelayAndNilSafety(t *testing.T) {
	s := mustParse(t, "distdelay:w1:5ms", "distdelay:w1|c:7ms")
	if d := s.HeartbeatDelay("w1|cell"); d != 7*time.Millisecond {
		t.Fatalf("delay = %v, want 7ms", d)
	}
	if d := s.HeartbeatDelay("w2|cell"); d != 0 {
		t.Fatalf("non-matching delay = %v, want 0", d)
	}
	var none Set
	if none.PreRun(context.Background(), "x") != nil || none.PreSave("x", 1) != nil || none.OnSave("x", 9) ||
		none.Drop("x") || none.HeartbeatDelay("x") != 0 {
		t.Fatal("empty Set is not inert")
	}
}

// TestKillOnSaveRejectsBadSpecs: a malformed killsnap spec refuses the
// whole list with an error naming it, so no kill is left half-armed.
func TestKillOnSaveRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"killsnap:", "killsnap:x", "killsnap::3", "killsnap:x:0", "killsnap:x:-1", "killsnap:x:abc"} {
		if s, err := Parse([]string{"killsnap:ok:1", spec}); s != nil || err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("Parse(%q) = %v, %v; want no Set and an error naming the spec", spec, s, err)
		}
	}
}

// TestParseDistProbing: in a list mixing kinds, each site probes only its
// own, so the fleet's kill fires at a save and its drop and delay only at
// the RPC site; malformed fleet specs name themselves.
func TestParseDistProbing(t *testing.T) {
	s := mustParse(t, "distkill:mcf:1", "distdrop:mcf:1", "distdelay:mcf:3ms", "snapfail:gcc:1")
	if s.PreRun(context.Background(), "bench=mcf") != nil || s.PreSave("bench=mcf", 1) != nil {
		t.Fatal("fleet faults fired before the run or a save")
	}
	if s.HeartbeatDelay("bench=mcf") != 3*time.Millisecond || !s.Drop("bench=mcf") || s.Drop("bench=gcc") {
		t.Fatal("RPC faults misfired at the RPC site")
	}
	if !s.OnSave("bench=mcf", 1) || s.Drop("bench=mcf") {
		t.Fatal("distkill did not fire at the save, or distdrop outran its budget")
	}
	for _, spec := range []string{"distkill:mcf", "distkill::2", "distkill:mcf:0", "distdrop:mcf:x", "distdelay:mcf:fast", "distdelay:mcf:-1s"} {
		if _, err := Parse([]string{spec}); err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("Parse(%q) = %v, want an error naming the spec", spec, err)
		}
	}
}

// TestParseServeForeignAndBad: the session server's sites refuse the
// fleet's RPC faults by name and admit every other kind; malformed serve
// specs name themselves.
func TestParseServeForeignAndBad(t *testing.T) {
	const serveSites = PreRun | PreSave | Save
	if err := mustParse(t, "slowtenant:acme:1s", "snapfail:s1:1", "killsnap:s1:1", "panic:s1", "transient:s1:2").Within(serveSites); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"distdrop:s1:1", "distdelay:s1:1ms"} {
		if err := mustParse(t, "panic:s1", spec).Within(serveSites); err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("serve accepted foreign %q: %v", spec, err)
		}
	}
	for _, spec := range []string{"slowtenant::1s", "slowtenant:acme:", "slowtenant:acme:fast", "slowtenant:acme:-1s",
		"snapfail::1", "snapfail:x:", "snapfail:x:0", "snapfail:x:zero", "nonsense"} {
		if _, err := Parse([]string{spec}); err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("Parse(%q) = %v, want an error naming the spec", spec, err)
		}
	}
}

// TestServeFaultNilSafe: an empty Set as an attempt's faults lets the
// cell run and save untouched.
func TestServeFaultNilSafe(t *testing.T) {
	var none Set
	a := harness.Attempt{Key: "serve|s1|acme", Path: filepath.Join(t.TempDir(), "cell.snap"), Faults: none,
		Kill: func() { t.Error("empty Set killed the process") }}
	res := harness.RunAttempt(context.Background(), a, func(ctx context.Context) (int, error) {
		cell := snapshot.CellFrom(ctx)
		err := errors.Join(cell.SaveSystem(state(1)), cell.SaveSystem(state(2)))
		return cell.Saves(), err
	})
	if res.Outcome != harness.Succeeded || res.Value != 2 {
		t.Fatalf("outcome %v after %d saves (%v), want success after 2", res.Outcome, res.Value, res.Err)
	}
}
