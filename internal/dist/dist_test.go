package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/rpc"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mayacache/internal/experiments"
	"mayacache/internal/faults"
	"mayacache/internal/harness"
	"mayacache/internal/snapshot"
)

// testGrid is the small sweep the fabric tests run: 2 designs x 2
// benches x 1 seed = 4 cells, each a couple of hundred thousand
// simulator steps — big enough for several snapshot saves, small enough
// for CI.
func testGrid() Grid {
	return Grid{
		Designs: []experiments.Design{experiments.DesignBaseline, experiments.DesignMaya},
		Benches: []string{"mcf", "lbm"},
		Seeds:   []uint64{1},
		Cores:   2,
		Warmup:  30_000,
		ROI:     15_000,
	}
}

// serialTSV runs the grid through the plain harness and renders the
// reference report.
func serialTSV(t *testing.T, g Grid) []byte {
	t.Helper()
	r := harness.New(harness.Options{Workers: 2, Seed: 99})
	rep, err := RunSerial(context.Background(), r, g)
	if err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	if rep.Failed() {
		var buf bytes.Buffer
		_ = rep.WriteTSV(&buf)
		t.Fatalf("serial reference run failed:\n%s", buf.String())
	}
	var buf bytes.Buffer
	if err := rep.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fabricCoord builds a coordinator with CI-scale timing: short leases so
// injected deaths resolve fast.
func fabricCoord(t *testing.T, g Grid, retries int) *Coordinator {
	t.Helper()
	// Lease sizing: generous relative to heartbeat cadence so scheduler
	// stalls under -race never expire a healthy worker's lease — only
	// genuinely dead workers (the injected kills) lose cells.
	coord, err := NewCoordinator(CoordOptions{
		Grid:          g,
		Lease:         2 * time.Second,
		Heartbeat:     100 * time.Millisecond,
		Retries:       retries,
		Seed:          99,
		SnapshotEvery: 4096,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

func inprocWorkers(t *testing.T, n int, fault func(i int) Faults) []InprocWorker {
	t.Helper()
	dir := t.TempDir()
	ws := make([]InprocWorker, n)
	for i := range ws {
		var f Faults
		if fault != nil {
			f = fault(i)
		}
		ws[i] = InprocWorker{Opts: WorkerOptions{
			Name:    fmt.Sprintf("t%d", i),
			SnapDir: filepath.Join(dir, fmt.Sprintf("w%d", i)),
			Faults:  f,
			Logf:    t.Logf,
		}}
	}
	return ws
}

// freshSaves counts the durable snapshot saves an uninterrupted run of
// cell makes at the given cadence — the denominator of the "a SIGKILL
// costs at most one snapshot interval" accounting.
func freshSaves(t *testing.T, c Cell, every uint64) int {
	t.Helper()
	cell, err := snapshot.OpenCell(snapshot.CellSpec{
		Path:  filepath.Join(t.TempDir(), "fresh.snap"),
		Every: every,
	}, fullKey(c.Key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(snapshot.WithCell(context.Background(), cell)); err != nil {
		t.Fatal(err)
	}
	return cell.Saves()
}

func mustParse(t *testing.T, specs ...string) faults.Set {
	t.Helper()
	s, err := faults.Parse(specs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ownRPC gives one worker its own RPC faults on top of a fault set its
// whole fleet shares.
type ownRPC struct {
	faults.Set
	rpc faults.Set
}

func (f ownRPC) Drop(key string) bool                    { return f.rpc.Drop(key) }
func (f ownRPC) HeartbeatDelay(key string) time.Duration { return f.rpc.HeartbeatDelay(key) }

func fabricTSV(t *testing.T, coord *Coordinator, workers []InprocWorker) []byte {
	t.Helper()
	rep, err := RunFabric(context.Background(), coord, workers)
	if err != nil {
		t.Fatalf("RunFabric: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The headline determinism proof: a clean 3-worker run AND a 3-worker
// chaos run (a worker SIGKILLed mid-cell, RPCs dropped, heartbeats
// delayed) each byte-match the serial harness run. Placement, failures,
// and retries must be invisible in the results.
func TestFabricByteMatchesSerial(t *testing.T) {
	g := testGrid()
	want := serialTSV(t, g)

	t.Run("clean", func(t *testing.T) {
		got := fabricTSV(t, fabricCoord(t, g, 2), inprocWorkers(t, 3, nil))
		if !bytes.Equal(got, want) {
			t.Fatalf("clean fabric != serial\nfabric:\n%s\nserial:\n%s", got, want)
		}
	})

	t.Run("chaos", func(t *testing.T) {
		// One kill fault SHARED by all workers: whichever worker reaches
		// the second durable save of a bench=mcf cell dies — exactly
		// once, like a machine loss. Individual workers additionally drop
		// RPCs and stall heartbeats.
		kill := mustParse(t, "distkill:bench=mcf:2")
		drop := mustParse(t, "distdrop:bench=lbm:1")
		delay := mustParse(t, "distdelay:bench=:10ms")
		coord := fabricCoord(t, g, 3)
		got := fabricTSV(t, coord, inprocWorkers(t, 3, func(i int) Faults {
			switch i {
			case 1:
				return ownRPC{kill, drop}
			case 2:
				return ownRPC{kill, delay}
			default:
				return kill
			}
		}))
		if !bytes.Equal(got, want) {
			t.Fatalf("chaos fabric != serial\nfabric:\n%s\nserial:\n%s", got, want)
		}

		// Crash-migration accounting: some mcf cell was killed after its
		// second durable save, so its lease expired, and the reassigned
		// attempt must have started from the shipped blob embodying >= 2
		// saves — the "a SIGKILL costs at most one snapshot interval"
		// contract, visible as resumed-iteration bookkeeping.
		migrated := 0
		for _, cell := range g.Cells() {
			log, migrations := coord.AttemptLog(cell.Key)
			if migrations == 0 {
				continue
			}
			migrated++
			if !strings.Contains(cell.Key, "bench=mcf") {
				t.Errorf("migrated cell %s does not match the kill fault", cell.Key)
			}
			final := log[len(log)-1]
			if !final.OK {
				t.Errorf("migrated cell %s final attempt not OK: %+v", cell.Key, final)
			}
			if !final.Migrated {
				t.Errorf("migrated cell %s final attempt did not resume from a blob", cell.Key)
			}
			// The lease-expiry record carries the save count the shipped
			// blob embodied; the kill fired ON the second save, so the
			// blob holds >= 2.
			blobSaves := 0
			for _, rec := range log {
				if strings.Contains(rec.Err, "lease expired") {
					blobSaves = rec.SnapSaves
				}
			}
			if blobSaves < 2 {
				t.Errorf("migrated cell %s: blob embodied %d save(s), want >= 2 (the kill ordinal)",
					cell.Key, blobSaves)
			}
			// Resumed-iteration accounting — the SIGKILL cost at most one
			// snapshot interval: the resumed attempt replays only the
			// simulation past the blob, so its own save count is bounded
			// by fresh-run saves minus blob saves, plus one interval of
			// slack for cadence realignment.
			total := freshSaves(t, cell, 4096)
			if final.Saves > total-blobSaves+1 {
				t.Errorf("migrated cell %s: resumed attempt made %d save(s); fresh run makes %d, blob had %d — more than one interval was replayed",
					cell.Key, final.Saves, total, blobSaves)
			}
			if final.Saves >= total {
				t.Errorf("migrated cell %s: resumed attempt made %d save(s), as many as a fresh run (%d) — it did not resume",
					cell.Key, final.Saves, total)
			}
		}
		if migrated == 0 {
			t.Fatal("kill fault fired but no cell migrated")
		}
	})
}

// A transient-forever cell must exhaust its retry budget and become a
// structured FAILED row — never a hang or a panic — while sibling cells
// complete. The serial harness renders the same failing grid byte for
// byte.
func TestRetryBudgetExhaustionFails(t *testing.T) {
	g := testGrid()
	const spec = "transient:bench=mcf|cores=2|w=30000:100"
	flaky := mustParse(t, spec)
	coord := fabricCoord(t, g, 1)
	workers := inprocWorkers(t, 2, func(int) Faults { return flaky })
	rep, err := RunFabric(context.Background(), coord, workers)
	if err != nil {
		t.Fatalf("RunFabric: %v", err)
	}
	serial, err := RunSerial(context.Background(), harness.New(harness.Options{
		Workers: 2, Retries: 1, Seed: 99, Faults: mustParse(t, spec),
	}), g)
	if err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	var got, want bytes.Buffer
	if err := rep.WriteTSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := serial.WriteTSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("failing grid: fabric != serial\nfabric:\n%s\nserial:\n%s", got.Bytes(), want.Bytes())
	}
	if !rep.Failed() {
		t.Fatal("report does not record the failure")
	}
	failed := 0
	for _, row := range rep.Rows {
		if row.Err == "" {
			continue
		}
		failed++
		if !strings.Contains(row.Key, "bench=mcf") {
			t.Errorf("unexpected failed cell %s: %s", row.Key, row.Err)
		}
		if !strings.Contains(row.Err, "retry budget exhausted") {
			t.Errorf("failure row %s lacks the budget taxonomy: %s", row.Key, row.Err)
		}
		log, _ := coord.AttemptLog(row.Key)
		if len(log) != 2 { // retries=1 -> exactly 2 attempts
			t.Errorf("cell %s attempted %d time(s), want 2: %+v", row.Key, len(log), log)
		}
	}
	// The fault substring matches both designs' mcf cells.
	if failed != 2 {
		t.Fatalf("%d failed row(s), want 2", failed)
	}
}

// logSink collects the log lines of a whole fabric run.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// A run that ends on its own does not cancel its workers: they leave on
// the coordinator's dismissal, so the worker whose Complete ends the run
// gets its reply and logs no failure. The failing grid of
// TestRetryBudgetExhaustionFails runs to completion 20 times; every report
// is the same and no worker logs a cancelled call.
func TestFabricWorkersLeaveOnDismissal(t *testing.T) {
	g := testGrid()
	var first []byte
	for run := 0; run < 20; run++ {
		flaky := mustParse(t, "transient:bench=mcf:100")
		var sink logSink
		coord := fabricCoord(t, g, 1)
		coord.opts.Logf = sink.logf
		workers := inprocWorkers(t, 2, func(int) Faults { return flaky })
		for i := range workers {
			workers[i].Opts.Logf = sink.logf
		}
		rep, err := RunFabric(context.Background(), coord, workers)
		if err != nil {
			t.Fatalf("run %d: RunFabric: %v", run, err)
		}
		var tsv bytes.Buffer
		if err := rep.WriteTSV(&tsv); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = tsv.Bytes()
		} else if !bytes.Equal(tsv.Bytes(), first) {
			t.Fatalf("run %d: report changed\n%s\nfirst:\n%s", run, tsv.Bytes(), first)
		}
		for _, line := range sink.lines {
			if strings.Contains(line, context.Canceled.Error()) {
				t.Errorf("run %d logged a cancelled call: %s", run, line)
			}
		}
	}
}

// Lease fencing, driven by hand over the RPC service with no worker: once
// a lease expires, its Complete, Upload and Heartbeat are refused, the
// cell is granted again, and only a Complete under the new lease (from
// the worker holding it) becomes the cell's value.
func TestStaleLeaseIsFenced(t *testing.T) {
	g := testGrid()
	g.Designs, g.Benches = g.Designs[:1], g.Benches[:1]
	coord, err := NewCoordinator(CoordOptions{
		Grid: g, Lease: 200 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		Retries: 1, Seed: 99, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := coord.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cliConn, srvConn := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		srv.ServeConn(srvConn)
	}()
	go func() {
		defer wg.Done()
		coord.Serve(ctx)
	}()
	client := rpc.NewClient(cliConn)
	defer func() {
		client.Close()
		wg.Wait()
	}()
	call := func(method string, args, reply any) {
		t.Helper()
		if err := client.Call(method, args, reply); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	register := func() string {
		t.Helper()
		var reg RegisterReply
		call("Coord.Register", &RegisterArgs{}, &reg)
		return reg.WorkerID
	}
	// lease polls until the coordinator grants w a cell.
	lease := func(w string) LeaseReply {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			var reply LeaseReply
			call("Coord.Lease", &LeaseArgs{WorkerID: w}, &reply)
			switch {
			case reply.Granted:
				return reply
			case reply.Done:
				t.Fatal("coordinator dismissed the worker with the cell open")
			case time.Now().After(deadline):
				t.Fatal("no lease granted within 30s")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	w := register()
	first := lease(w)
	// No heartbeat: the first lease expires, and the cell is granted again.
	second := lease(w)
	if second.Cell.Key != first.Cell.Key || second.LeaseID == first.LeaseID {
		t.Fatalf("second grant = cell %s lease %d, want cell %s under a new lease (first %d)",
			second.Cell.Key, second.LeaseID, first.Cell.Key, first.LeaseID)
	}

	var cr CompleteReply
	call("Coord.Complete", &CompleteArgs{WorkerID: w, LeaseID: first.LeaseID, Value: []byte(`{"stale":true}`)}, &cr)
	if cr.Accepted {
		t.Error("Complete under the expired lease was accepted")
	}
	var ur UploadReply
	call("Coord.Upload", &UploadArgs{WorkerID: w, LeaseID: first.LeaseID, State: []byte("stale"), Saves: 1}, &ur)
	if !ur.Stale {
		t.Error("Upload under the expired lease was not reported stale")
	}
	var hr HeartbeatReply
	call("Coord.Heartbeat", &HeartbeatArgs{WorkerID: w, LeaseID: first.LeaseID}, &hr)
	if !hr.Revoked {
		t.Error("Heartbeat under the expired lease was not revoked")
	}
	// The live lease ID from another worker is fenced too.
	cr = CompleteReply{}
	call("Coord.Complete", &CompleteArgs{WorkerID: register(), LeaseID: second.LeaseID, Value: []byte(`{"foreign":true}`)}, &cr)
	if cr.Accepted {
		t.Error("Complete from a worker not holding the lease was accepted")
	}

	cr = CompleteReply{}
	call("Coord.Complete", &CompleteArgs{WorkerID: w, LeaseID: second.LeaseID, Value: []byte(`{"ipc":1}`)}, &cr)
	if !cr.Accepted {
		t.Fatal("Complete under the live lease was refused")
	}
	select {
	case <-coord.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator not done after its only cell completed")
	}
	rows := coord.Report().Rows
	if len(rows) != 1 || rows[0].Err != "" || string(rows[0].Value) != `{"ipc":1}` {
		t.Fatalf("report rows = %+v, want the live lease's value", rows)
	}
	log, _ := coord.AttemptLog(first.Cell.Key)
	if len(log) != 2 || !strings.Contains(log[0].Err, "lease expired") || !log[1].OK {
		t.Fatalf("attempt log = %+v, want an expiry then a success", log)
	}
}

// Coordinator cancellation must reach an in-flight cell via heartbeat
// revocation — within roughly one heartbeat interval plus the
// simulator's cancellation poll — even when the worker's own context is
// untouched (the remote-worker topology).
func TestCoordinatorCancellationReachesCell(t *testing.T) {
	g := Grid{
		Designs: []experiments.Design{experiments.DesignBaseline},
		Benches: []string{"mcf"},
		Seeds:   []uint64{1},
		Cores:   2,
		// Minutes of simulation if run to completion: the test passes
		// only if cancellation actually interrupts it.
		Warmup: 50_000_000,
		ROI:    50_000_000,
	}
	coord, err := NewCoordinator(CoordOptions{
		Grid:      g,
		Lease:     2 * time.Second,
		Heartbeat: 50 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := coord.NewServer()
	if err != nil {
		t.Fatal(err)
	}

	coordCtx, cancelCoord := context.WithCancel(context.Background())
	defer cancelCoord()
	workerCtx, cancelWorker := context.WithCancel(context.Background())
	defer cancelWorker()

	cliConn, srvConn := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		srv.ServeConn(srvConn)
	}()
	go func() {
		defer wg.Done()
		coord.Serve(coordCtx)
	}()

	client := rpc.NewClient(cliConn)
	defer client.Close()
	w, err := NewWorker(workerCtx, client, WorkerOptions{SnapDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runDone <- w.Run(workerCtx)
	}()

	// Let the cell get going, then cancel the coordinator only.
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	cancelCoord()

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("worker returned error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop within 5s of coordinator cancellation")
	}
	elapsed := time.Since(start)
	// One heartbeat (50ms) + simulator cancel poll + RPC turnaround; 2s
	// is an order of magnitude of slack, while completion would take
	// minutes.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to reach the cell, want ~1 heartbeat", elapsed)
	}
	rep := coord.Report()
	if rep.Rows[0].Err != "not completed (run cancelled)" {
		t.Fatalf("cancelled cell row = %+v, want a cancellation marker", rep.Rows[0])
	}
	cancelWorker()
	client.Close()
	wg.Wait()
}

// A coordinator restarted on a completed checkpoint must resolve every
// cell from the file (no recompute), and the serial path must read the
// fabric's checkpoint interchangeably.
func TestCheckpointResume(t *testing.T) {
	g := testGrid()
	want := serialTSV(t, g)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	cp, err := harness.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordOptions{
		Grid: g, Lease: 2 * time.Second, Heartbeat: 100 * time.Millisecond,
		Seed: 99, SnapshotEvery: 4096, Checkpoint: cp, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fabricTSV(t, coord, inprocWorkers(t, 2, nil))
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric-with-checkpoint != serial\nfabric:\n%s\nserial:\n%s", got, want)
	}

	// Restart: every cell restored, Done immediately, identical report.
	cp2, err := harness.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := NewCoordinator(CoordOptions{
		Grid: g, Lease: 2 * time.Second, Heartbeat: 100 * time.Millisecond,
		Seed: 99, Checkpoint: cp2,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("restored coordinator is not immediately done")
	}
	var buf bytes.Buffer
	if err := coord2.Report().WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("restored report != serial\nrestored:\n%s\nserial:\n%s", buf.Bytes(), want)
	}

	// Cross-path: the serial runner resumes from the fabric's checkpoint
	// too (same keys, same JSONL writer) without recomputing.
	cp3, err := harness.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	r := harness.New(harness.Options{Workers: 1, Seed: 99, Checkpoint: cp3})
	rep, err := RunSerial(context.Background(), r, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, restored, _ := r.Stats(); restored != len(g.Cells()) {
		t.Fatalf("serial resume restored %d cell(s), want %d", restored, len(g.Cells()))
	}
	buf.Reset()
	if err := rep.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("serial resume from fabric checkpoint diverged")
	}
}

func TestGridValidateAndCells(t *testing.T) {
	for _, bad := range []Grid{
		{},
		{Designs: []experiments.Design{"Maya"}, Benches: []string{"mcf"}, Seeds: []uint64{1}, Warmup: 1, ROI: 1},
		{Designs: []experiments.Design{"Maya"}, Benches: []string{"mcf"}, Seeds: []uint64{1}, Cores: 2, ROI: 1},
		{Designs: []experiments.Design{"Maya"}, Benches: []string{"mcf"}, Seeds: []uint64{1}, Cores: 2, Warmup: 1},
		{Designs: []experiments.Design{"Maya"}, Seeds: []uint64{1}, Cores: 2, Warmup: 1, ROI: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("grid %+v validated", bad)
		}
	}
	g := testGrid()
	cells := g.Cells()
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	// Design-major, bench order as listed, keys match the experiments
	// layer (so checkpoints interoperate).
	sc := experiments.Scale{WarmupInstr: g.Warmup, ROIInstr: g.ROI, Seed: 1}
	if cells[0].Key != experiments.GridCellKey(experiments.DesignBaseline, "mcf", 2, sc) {
		t.Fatalf("cell 0 key = %s", cells[0].Key)
	}
	if cells[3].Key != experiments.GridCellKey(experiments.DesignMaya, "lbm", 2, sc) {
		t.Fatalf("cell 3 key = %s", cells[3].Key)
	}
}

func TestSeedListMatchesShardSeeds(t *testing.T) {
	seeds := SeedList(7, 3)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	uniq := map[uint64]bool{}
	for _, s := range seeds {
		uniq[s] = true
	}
	if len(uniq) != 3 {
		t.Fatalf("seeds not distinct: %v", seeds)
	}
	if one := SeedList(7, 1); len(one) != 1 || one[0] != 7 {
		t.Fatalf("SeedList(7,1) = %v, want [7]", one)
	}
}

func TestNewCoordinatorRejectsBadTiming(t *testing.T) {
	if _, err := NewCoordinator(CoordOptions{Grid: testGrid(), Lease: time.Second, Heartbeat: 2 * time.Second}); err == nil {
		t.Fatal("heartbeat >= lease accepted")
	}
	if _, err := NewCoordinator(CoordOptions{Grid: testGrid(), Retries: -1}); err == nil {
		t.Fatal("negative retries accepted")
	}
	if _, err := NewCoordinator(CoordOptions{Grid: Grid{}}); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// A single worker holding several concurrent leases produces the same
// bytes as the serial harness: lease multiplexing is a throughput knob,
// never a determinism hazard.
func TestFabricLeasesByteMatchesSerial(t *testing.T) {
	g := testGrid()
	want := serialTSV(t, g)

	workers := inprocWorkers(t, 1, nil)
	workers[0].Opts.Leases = 3
	got := fabricTSV(t, fabricCoord(t, g, 2), workers)
	if !bytes.Equal(got, want) {
		t.Fatalf("multi-lease fabric != serial\nfabric:\n%s\nserial:\n%s", got, want)
	}
}
