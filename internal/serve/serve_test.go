package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mayacache/internal/cachesim"
	"mayacache/internal/faults"
	"mayacache/internal/harness"
)

// Tiny but real simulations: big enough to cross several auto-snapshot
// intervals, small enough to keep the suite fast.
const (
	testWarmup uint64 = 20_000
	testROI    uint64 = 30_000
	testEvery  uint64 = 4_096
)

func testSpec(tenant string, seed uint64) Spec {
	return Spec{
		Tenant: tenant, Design: "Baseline", Bench: "mcf",
		Cores: 1, Warmup: testWarmup, ROI: testROI, Seed: seed,
	}
}

func mustParse(t *testing.T, specs ...string) faults.Set {
	t.Helper()
	s, err := faults.Parse(specs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// onSave is a Faults fake with only a save site: it observes every
// durable session save (and never kills).
type onSave func(key string, saves int)

func (onSave) PreRun(context.Context, string) error { return nil }
func (onSave) PreSave(string, int) error            { return nil }
func (f onSave) OnSave(key string, saves int) bool {
	f(key, saves)
	return false
}

func openServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = testEvery
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 7
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// waitState polls until the session reaches a terminal state or the
// deadline passes.
func waitState(t *testing.T, s *Server, id string, want string) *SessionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info := s.Session(id)
		if info == nil {
			t.Fatalf("session %s disappeared", id)
		}
		if info.State == want {
			return info
		}
		if info.State == StateDone || info.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("session %s state %q (err %q), want %q", id, info.State, info.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecycle: admissions run to completion, results decode, the
// journal survives a graceful close, and a reopened server serves the
// same bytes without re-simulating.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := openServer(t, Config{Dir: dir, Workers: 2})
	s.Start(context.Background())

	id1, err := s.Admit(testSpec("acme", 1))
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	id2, err := s.Admit(testSpec("zworks", 2))
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	if id1 != "s000001" || id2 != "s000002" {
		t.Fatalf("ids = %s, %s", id1, id2)
	}
	waitState(t, s, id1, StateDone)
	waitState(t, s, id2, StateDone)

	raw1, errMsg, ok := s.Result(id1)
	if !ok || errMsg != "" {
		t.Fatalf("result 1: ok=%v err=%q", ok, errMsg)
	}
	var res cachesim.Results
	if err := json.Unmarshal(raw1, &res); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if len(res.Cores) != 1 || res.Cores[0].Instructions == 0 {
		t.Fatalf("implausible result %+v", res)
	}
	st := s.StatsNow()
	if st.Completed != 2 || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: both sessions are served from the journal, byte-identical.
	s2 := openServer(t, Config{Dir: dir, Workers: 2})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatalf("close 2: %v", err)
		}
	}()
	if got := s2.StatsNow(); got.Completed != 2 || got.Recovered != 0 {
		t.Fatalf("reopened stats %+v", got)
	}
	raw1b, _, ok := s2.Result(id1)
	if !ok || !bytes.Equal(raw1, raw1b) {
		t.Fatalf("reopened result differs:\n %s\n %s", raw1, raw1b)
	}
}

// TestBadSpecs: validation rejects each malformed field with ErrBadSpec
// before anything is journaled.
func TestBadSpecs(t *testing.T) {
	s := openServer(t, Config{Dir: t.TempDir()})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	bad := []Spec{
		{},
		{Tenant: "UPPER", Design: "Maya", Bench: "mcf", Cores: 1, ROI: 1},
		{Tenant: strings.Repeat("a", 40), Design: "Maya", Bench: "mcf", Cores: 1, ROI: 1},
		{Tenant: "t", Design: "NotADesign", Bench: "mcf", Cores: 1, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "nope", Cores: 1, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 0, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: MaxCores + 1, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 1, ROI: 0},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 1, ROI: MaxInstr + 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 1, ROI: 1, DeadlineMS: -1},
	}
	for i, sp := range bad {
		if _, err := s.Admit(sp); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("bad spec %d admitted (err=%v)", i, err)
		}
	}
	// Every design registered with cachemodel is a valid spec, including
	// the ones beyond the paper's comparison set.
	for _, d := range []string{"CEASER", "CEASER-S", "ScatterCache", "Maya-ISO"} {
		if err := (Spec{Tenant: "t", Design: d, Bench: "mcf", Cores: 1, ROI: 1}).Validate(); err != nil {
			t.Fatalf("registered design %s rejected: %v", d, err)
		}
	}
	if n := len(s.ck.Keys()); n != 0 {
		t.Fatalf("rejected specs left %d journal records", n)
	}
}

// TestCrashRecoveryByteIdentity is the chaos core: a server hard-stopped
// mid-ROI (the in-process stand-in for kill -9 — no drain, no trigger,
// no terminal records) recovers every session from its last durable
// snapshot and finishes with results byte-identical to an undisturbed
// server computing the same specs.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	specs := []Spec{testSpec("acme", 1), testSpec("acme", 2), testSpec("zworks", 3)}

	// Reference: undisturbed run.
	ref := openServer(t, Config{Dir: t.TempDir(), Workers: 2})
	ref.Start(context.Background())
	refBytes := map[int]json.RawMessage{}
	for i, sp := range specs {
		id, err := ref.Admit(sp)
		if err != nil {
			t.Fatalf("ref admit %d: %v", i, err)
		}
		waitState(t, ref, id, StateDone)
		raw, _, _ := ref.Result(id)
		refBytes[i] = raw
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Chaos: same specs. Each session is held in OnSave after its first
	// durable save until every session has one, so none can finish and
	// journal a done record (every resume is genuinely mid-run). A copy of
	// the data directory taken then is exactly what a kill -9 would leave.
	dir := t.TempDir()
	var mu sync.Mutex
	saved := map[string]bool{}
	allSaved := make(chan struct{})
	release := make(chan struct{})
	victim := openServer(t, Config{
		Dir: dir, Workers: len(specs),
		Faults: onSave(func(key string, _ int) {
			mu.Lock()
			first := !saved[key]
			saved[key] = true
			if first && len(saved) == len(specs) {
				close(allSaved)
			}
			mu.Unlock()
			if first {
				<-release
			}
		}),
	})
	victim.Start(context.Background())
	ids := make([]string, len(specs))
	for i, sp := range specs {
		id, err := victim.Admit(sp)
		if err != nil {
			t.Fatalf("victim admit %d: %v", i, err)
		}
		ids[i] = id
	}
	select {
	case <-allSaved:
	case <-time.After(60 * time.Second):
		close(release)
		t.Fatal("sessions never reached a durable save")
	}
	crashed := t.TempDir()
	copyDurableState(t, dir, crashed)
	close(release)
	if err := victim.Close(); err != nil { // hard cancel: no drain, no records
		t.Fatal(err)
	}

	// Recovery: every session re-admitted and resumed to the same bytes.
	rec := openServer(t, Config{Dir: crashed, Workers: 2})
	if got := rec.StatsNow(); got.Recovered != len(specs) {
		t.Fatalf("recovered %d sessions, want %d", got.Recovered, len(specs))
	}
	rec.Start(context.Background())
	for i, id := range ids {
		waitState(t, rec, id, StateDone)
		raw, errMsg, ok := rec.Result(id)
		if !ok || errMsg != "" {
			t.Fatalf("recovered result %s: ok=%v err=%q", id, ok, errMsg)
		}
		if !bytes.Equal(raw, refBytes[i]) {
			t.Fatalf("session %s diverged after crash recovery:\n ref %s\n got %s", id, refBytes[i], raw)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPanicIsolation: a panicking session is one failed record, not a
// dead daemon. Its sibling completes, and a server reopened on the same
// directory serves the journaled failure instead of re-admitting the
// session (which would panic again on every restart).
func TestPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	s := openServer(t, Config{Dir: dir, Workers: 2, Faults: mustParse(t, "panic:s000001")})
	s.Start(context.Background())
	victim, err := s.Admit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := s.Admit(testSpec("beta", 2))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, victim, StateFailed)
	if !strings.Contains(failed.Error, "panic: injected fault") {
		t.Fatalf("victim error %q does not carry the panic", failed.Error)
	}
	waitState(t, s, sibling, StateDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openServer(t, Config{Dir: dir, Workers: 2})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st := s2.StatsNow(); st.Recovered != 0 || st.Queued != 0 || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("reopened stats %+v, want the failure served from the journal, nothing re-queued", st)
	}
	if _, errMsg, ok := s2.Result(victim); !ok || errMsg != failed.Error {
		t.Fatalf("reopened victim result: ok=%v err=%q, want %q", ok, errMsg, failed.Error)
	}
}

// copyDurableState copies a server's durable state (the journal and the
// session cells) from src to dst, leaving the journal's lock sidecar
// behind as a killed process would.
func copyDurableState(t *testing.T, src, dst string) {
	t.Helper()
	files := []string{"journal.jsonl"}
	cells, err := os.ReadDir(filepath.Join(src, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		files = append(files, filepath.Join("cells", c.Name()))
	}
	if err := os.MkdirAll(filepath.Join(dst, "cells"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainResume: the graceful half of shutdown. Drain stops admissions
// (503-class ErrDraining), persists running sessions via the snapshot
// trigger, and parks every worker before the grace window would expire;
// the next boot completes the drained sessions byte-identically. A temp
// file that a write killed before its rename would leave beside the
// drained cell is removed by that boot, and changes nothing.
func TestDrainResume(t *testing.T) {
	// Reference bytes for the spec.
	ref := openServer(t, Config{Dir: t.TempDir(), Workers: 1})
	ref.Start(context.Background())
	refID, err := ref.Admit(testSpec("acme", 9))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, refID, StateDone)
	refRaw, _, _ := ref.Result(refID)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	firstSave, drained := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s := openServer(t, Config{
		Dir: dir, Workers: 1,
		// The first save's hook waits until the drain has fired the
		// trigger. The session's next save waits for the hook, so the
		// session cannot finish before a later poll sees the trigger.
		Faults: onSave(func(string, int) {
			once.Do(func() {
				close(firstSave)
				<-drained
			})
		}),
	})
	s.Start(context.Background())
	id, err := s.Admit(testSpec("acme", 9))
	if err != nil {
		t.Fatal(err)
	}
	<-firstSave
	s.Drain()
	close(drained)
	select {
	case <-s.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not park the workers")
	}
	if _, err := s.Admit(testSpec("acme", 10)); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission during drain: %v", err)
	}
	// The drained session has no terminal record and stays queued.
	if info := s.Session(id); info.State != StateQueued {
		t.Fatalf("drained session state %q", info.State)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cells := filepath.Join(dir, "cells")
	entries, err := os.ReadDir(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cells/ holds %d entries after the drain, want the drained cell", len(entries))
	}
	torn := filepath.Join(cells, "."+entries[0].Name()+".tmp2718281828")
	if err := os.WriteFile(torn, []byte("MAYASNAP torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openServer(t, Config{Dir: dir, Workers: 1})
	if got := s2.StatsNow(); got.Recovered != 1 {
		t.Fatalf("recovered %d, want 1", got.Recovered)
	}
	if _, err := os.Stat(torn); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("recovery left the torn write's temp file: %v", err)
	}
	s2.Start(context.Background())
	waitState(t, s2, id, StateDone)
	raw, _, _ := s2.Result(id)
	if !bytes.Equal(raw, refRaw) {
		t.Fatalf("drained+resumed result diverged:\n ref %s\n got %s", refRaw, raw)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(cells); err != nil || len(entries) != 0 {
		t.Fatalf("cells/ after the resumed session: %d entries, err %v; want none", len(entries), err)
	}
}

// TestSessionOrderPastSixDigits: session IDs keep admission order past
// s999999, where s1000000 sorts before s999999 as a plain string. A
// reopened journal queues and lists them in admission order, and the
// next admission continues the count.
func TestSessionOrderPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		t.Fatal(err)
	}
	ck, err := harness.OpenCheckpoint(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s999999", "s1000000"} {
		if err := ck.Record("admit|"+id, testSpec("acme", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	s := openServer(t, Config{Dir: dir, Workers: 1})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	want := []string{"s999999", "s1000000"}
	if !reflect.DeepEqual(s.queue, want) {
		t.Errorf("recovered queue %v, want %v", s.queue, want)
	}
	var listed []string
	for _, info := range s.Sessions() {
		listed = append(listed, info.ID)
	}
	if !reflect.DeepEqual(listed, want) {
		t.Errorf("Sessions() lists %v, want %v", listed, want)
	}
	if id, err := s.Admit(testSpec("zworks", 2)); err != nil || id != "s1000001" {
		t.Errorf("next admission = %q (err %v), want s1000001", id, err)
	}
}

// TestRecoveryRemovesDoneCells: a boot lists cells/ once. It removes the
// cell file that a crash between a done record and its cleanup left
// behind, and keeps the unfinished session's file, from which that
// session resumes to the bytes of an undisturbed run.
func TestRecoveryRemovesDoneCells(t *testing.T) {
	ref := openServer(t, Config{Dir: t.TempDir(), Workers: 1})
	ref.Start(context.Background())
	refID, err := ref.Admit(testSpec("zworks", 9))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, refID, StateDone)
	refRaw, _, _ := ref.Result(refID)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// One session finishes; the next is drained after its first save.
	dir := t.TempDir()
	firstSave, drained := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s := openServer(t, Config{
		Dir: dir, Workers: 1,
		Faults: onSave(func(key string, _ int) {
			if strings.Contains(key, "zworks") {
				once.Do(func() {
					close(firstSave)
					<-drained
				})
			}
		}),
	})
	s.Start(context.Background())
	doneID, err := s.Admit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, doneID, StateDone)
	id, err := s.Admit(testSpec("zworks", 9))
	if err != nil {
		t.Fatal(err)
	}
	<-firstSave
	s.Drain()
	close(drained)
	select {
	case <-s.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not park the workers")
	}
	s.mu.Lock()
	orphan := s.cellPath(s.sessions[doneID])
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("MAYASNAP orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openServer(t, Config{Dir: dir, Workers: 1})
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("recovery left the done session's cell file: %v", err)
	}
	if got := s2.StatsNow(); got.Recovered != 1 {
		t.Fatalf("recovered %d, want 1", got.Recovered)
	}
	s2.Start(context.Background())
	info := waitState(t, s2, id, StateDone)
	if info.Done >= info.Total {
		t.Errorf("resumed session retired %d of %d instructions: it restarted instead of resuming from its cell", info.Done, info.Total)
	}
	raw, _, _ := s2.Result(id)
	if !bytes.Equal(raw, refRaw) {
		t.Fatalf("resumed result diverged:\n ref %s\n got %s", refRaw, raw)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadShedding: each watermark sheds with a structured ShedError and
// a sane Retry-After instead of queueing unboundedly.
func TestLoadShedding(t *testing.T) {
	s := openServer(t, Config{
		Dir: t.TempDir(), Workers: 1,
		Quotas: Quotas{TenantRunning: 1, TenantQueued: 1, GlobalQueued: 2},
		Faults: mustParse(t, "slowtenant:hog:30s"),
	})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Session 1 occupies the only worker (stalled 30s by the injector);
	// session 2 sits in hog's queue slot.
	if _, err := s.Admit(testSpec("hog", 1)); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s)
	if _, err := s.Admit(testSpec("hog", 2)); err != nil {
		t.Fatal(err)
	}

	// Tenant queue full for hog…
	_, err := s.Admit(testSpec("hog", 3))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "tenant queue" {
		t.Fatalf("hog admission = %v, want tenant-queue shed", err)
	}
	if shed.RetryAfter < time.Second || shed.RetryAfter > 5*time.Minute+2*time.Minute {
		t.Fatalf("retry-after %v out of range", shed.RetryAfter)
	}

	// …but other tenants still get in until the global queue fills.
	if _, err := s.Admit(testSpec("bystander", 4)); err != nil {
		t.Fatalf("bystander shed prematurely: %v", err)
	}
	_, err = s.Admit(testSpec("late", 5))
	if !errors.As(err, &shed) || shed.Reason != "global queue" {
		t.Fatalf("late admission = %v, want global-queue shed", err)
	}
	if got := s.StatsNow(); got.Shed != 2 {
		t.Fatalf("shed count %d, want 2", got.Shed)
	}
}

func waitRunning(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.StatsNow().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no session started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLatencyWatermarkShed: once observed p99 crosses the watermark,
// admissions shed even with queue capacity to spare.
func TestLatencyWatermarkShed(t *testing.T) {
	s := openServer(t, Config{Dir: t.TempDir(), Workers: 1, ShedP99: time.Nanosecond})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	id, err := s.Admit(testSpec("acme", 1)) // first admit: no observations yet
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone) // any real run exceeds 1ns
	_, err = s.Admit(testSpec("acme", 2))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "latency watermark" {
		t.Fatalf("post-watermark admission = %v, want latency shed", err)
	}
}

// TestSnapfailIsolation: an injected snapshot-write failure is one
// session's structured terminal error, not the server's.
func TestSnapfailIsolation(t *testing.T) {
	s := openServer(t, Config{
		Dir: t.TempDir(), Workers: 2,
		Faults: mustParse(t, "snapfail:s000001:2"),
	})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	id1, err := s.Admit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Admit(testSpec("acme", 2))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		info := s.Session(id1)
		if info.State == StateFailed {
			if !strings.Contains(info.Error, "injected") {
				t.Fatalf("failure cause %q does not name the injected fault", info.Error)
			}
			break
		}
		if info.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("victim session state %q, want failed", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitState(t, s, id2, StateDone)
	if st := s.StatsNow(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeadline: a session past its per-run deadline fails terminally
// with a deadline error while the server keeps serving.
func TestDeadline(t *testing.T) {
	s := openServer(t, Config{
		Dir: t.TempDir(), Workers: 2,
		Faults: mustParse(t, "slowtenant:sloth:20s"),
	})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	sp := testSpec("sloth", 1)
	sp.DeadlineMS = 50
	id, err := s.Admit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := s.Session(id)
		if info.State == StateFailed {
			if !strings.Contains(info.Error, "deadline exceeded") {
				t.Fatalf("failure cause %q, want deadline exceeded", info.Error)
			}
			break
		}
		if info.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("session state %q, want deadline failure", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The server is still healthy: a normal session completes.
	id2, err := s.Admit(testSpec("acme", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id2, StateDone)
}
