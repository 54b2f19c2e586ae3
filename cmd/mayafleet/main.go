// Command mayafleet runs design/benchmark/seed sweep grids on the
// fault-tolerant distributed fabric (internal/dist): a coordinator hands
// grid cells to workers under time-bounded leases with heartbeats, dead
// or partitioned workers lose their leases and their cells migrate —
// resuming from the worker's last uploaded MAYASNAP state blob — and
// the final report is byte-identical to a serial run of the same grid.
//
// Usage:
//
//	mayafleet serial     [grid flags] [-workers N] [-retries N]
//	                     [-checkpoint FILE] [-fault SPEC]
//	mayafleet coordinate [grid flags] (-inproc N | -listen ADDR)
//	                     [-lease 10s] [-heartbeat 2s] [-retries N]
//	                     [-snapshot-dir DIR] [-snapshot-every N]
//	                     [-checkpoint FILE] [-fault SPEC]... [-addr-file FILE]
//	mayafleet work       -addr HOST:PORT [-name LABEL] [-snapshot-dir DIR]
//	                     [-fault SPEC]... [-grace 30s] [-leases N]
//
// Grid flags: -designs Baseline,Maya -benches mcf,lbm -cores 8
// -warmup N -roi N -seed S -seeds K (K seeds derived from S by the Monte
// Carlo engine's shard derivation).
//
// serial runs the grid through the plain in-process harness — the
// reference execution the fabric byte-matches. coordinate runs the same
// harness sweep, with each attempt leased to a worker: -inproc N spins
// up N workers inside the process over pipes (no networking); -listen
// ADDR serves net/rpc over TCP for external `mayafleet work` processes
// and, with -addr-file, writes the bound address for scripts. work pulls leases until the coordinator reports
// the run complete; SIGINT/SIGTERM makes its in-flight cell save and
// upload its exact simulator state, stop early, and migrate to a
// surviving worker — a SIGKILL instead costs at most one snapshot
// interval of recomputation.
//
// -fault injects faults for chaos drills (repeatable; see faults.Parse):
// distkill:S:N or killsnap:S:N (kill the worker at the N-th durable save
// of a cell matching substring S), snapfail:S:N (fail that save),
// distdrop:S:N (blackhole the next N cell-scoped RPCs), distdelay:S:D
// (stall heartbeats by D), plus panic:S, error:S, transient:S:K, and
// slowtenant:F:D, applied before matching cells. serial has only the
// last four; a coordinator with -listen takes none (pass them to the
// workers).
//
// Both report paths emit one TSV row per cell on stdout —
// key<TAB>OK<TAB>json or key<TAB>FAILED<TAB>error — sorted by key. The
// rows match byte for byte on a failing grid too: with -retries 1
// -fault transient:bench=mcf:100, serial and coordinate -inproc 2 both
// exit 1 and print the same FAILED rows, each ending "(retry budget
// exhausted after 2 attempt(s))"; e2e.sh compares them.
//
// Exit status: 0 when every cell completed; 1 when any cell FAILED,
// the run was interrupted, or a transport link died; 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mayacache/internal/dist"
	"mayacache/internal/experiments"
	"mayacache/internal/faults"
	"mayacache/internal/harness"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: mayafleet <serial|coordinate|work> [flags]")
	fmt.Fprintln(os.Stderr, "run 'mayafleet <subcommand> -h' for subcommand flags")
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "serial":
		return runSerial(args[1:])
	case "coordinate":
		return runCoordinate(args[1:])
	case "work":
		return runWork(args[1:])
	case "-h", "-help", "--help":
		return usage()
	default:
		fmt.Fprintf(os.Stderr, "mayafleet: unknown subcommand %q\n", args[0])
		return usage()
	}
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "mayafleet: "+format+"\n", args...)
	return 2
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mayafleet: "+format+"\n", args...)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// gridFlags registers and resolves the sweep-grid flag group shared by
// serial and coordinate.
type gridFlags struct {
	designs string
	benches string
	cores   int
	warmup  uint64
	roi     uint64
	seed    uint64
	seeds   int
}

func addGridFlags(fs *flag.FlagSet) *gridFlags {
	g := &gridFlags{}
	fs.StringVar(&g.designs, "designs", "Baseline,Maya", "comma-separated cache designs to sweep")
	fs.StringVar(&g.benches, "benches", "mcf,lbm", "comma-separated benchmarks to sweep")
	fs.IntVar(&g.cores, "cores", 8, "cores per simulated system")
	fs.Uint64Var(&g.warmup, "warmup", 2_000_000, "warmup instructions per core")
	fs.Uint64Var(&g.roi, "roi", 1_000_000, "measured instructions per core")
	fs.Uint64Var(&g.seed, "seed", 1, "base sweep seed")
	fs.IntVar(&g.seeds, "seeds", 1, "number of seeds derived from -seed (mc shard derivation)")
	return g
}

// grid validates the flag group and expands it into a dist.Grid; errors
// are usage errors (no simulation has run).
func (g *gridFlags) grid() (dist.Grid, error) {
	if g.seeds <= 0 {
		return dist.Grid{}, fmt.Errorf("-seeds must be positive (got %d)", g.seeds)
	}
	var designs []experiments.Design
	for _, d := range splitList(g.designs) {
		if _, err := experiments.NewLLCChecked(experiments.Design(d),
			experiments.LLCOptions{Cores: g.cores, Seed: 1, FastHash: true}); err != nil {
			return dist.Grid{}, fmt.Errorf("design %q: %w", d, err)
		}
		designs = append(designs, experiments.Design(d))
	}
	var benches []string
	for _, b := range splitList(g.benches) {
		if _, err := trace.Lookup(b); err != nil {
			return dist.Grid{}, err
		}
		benches = append(benches, b)
	}
	grid := dist.Grid{
		Designs: designs,
		Benches: benches,
		Seeds:   dist.SeedList(g.seed, g.seeds),
		Cores:   g.cores,
		Warmup:  g.warmup,
		ROI:     g.roi,
	}
	return grid, grid.Validate()
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// emitReport writes the TSV and folds the outcome into an exit code.
func emitReport(rep dist.Report, interrupted bool) int {
	if err := rep.WriteTSV(os.Stdout); err != nil {
		logf("writing report: %v", err)
		return 1
	}
	if interrupted {
		logf("interrupted; partial report above")
		return 1
	}
	if rep.Failed() {
		logf("some cells FAILED (rows above)")
		return 1
	}
	return 0
}

func runSerial(args []string) int {
	fs := flag.NewFlagSet("mayafleet serial", flag.ContinueOnError)
	g := addGridFlags(fs)
	var (
		workers    = fs.Int("workers", 0, "worker-pool width: cells run at once (0 = GOMAXPROCS)")
		retries    = fs.Int("retries", 0, "retries for cells failing with transient errors")
		checkpoint = fs.String("checkpoint", "", "JSONL checkpoint file: completed cells are appended and restored on rerun")
		faultSpecs multiFlag
	)
	fs.Var(&faultSpecs, "fault", "inject a fault into matching cells (repeatable): panic:<substr> | error:<substr> | transient:<substr>:<k>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	grid, err := g.grid()
	if err != nil {
		return fail("%v", err)
	}
	if *workers < 0 || *retries < 0 {
		return fail("-workers and -retries must be >= 0")
	}
	set, err := faults.Parse(faultSpecs)
	if err != nil {
		return fail("%v", err)
	}
	if err := set.Within(faults.PreRun); err != nil {
		return fail("%v; save and RPC faults need a worker fleet: use coordinate -inproc or work", err)
	}
	var cp *harness.Checkpoint
	if *checkpoint != "" {
		if cp, err = harness.OpenCheckpoint(*checkpoint); err != nil {
			return fail("%v", err)
		}
		defer cp.Close()
	}
	ctx, cancel := harness.NotifyShutdown(context.Background(), nil, 0,
		func(msg string) { logf("%s", msg) })
	defer cancel()
	runner := harness.New(harness.Options{
		Workers:    *workers,
		Retries:    *retries,
		Seed:       g.seed,
		Checkpoint: cp,
		Faults:     set,
	})
	rep, err := dist.RunSerial(ctx, runner, grid)
	if err != nil && ctx.Err() == nil {
		return fail("%v", err)
	}
	return emitReport(rep, ctx.Err() != nil)
}

func runCoordinate(args []string) int {
	fs := flag.NewFlagSet("mayafleet coordinate", flag.ContinueOnError)
	g := addGridFlags(fs)
	var (
		inproc     = fs.Int("inproc", 0, "run N in-process workers over pipes (no networking)")
		listen     = fs.String("listen", "", "serve net/rpc on this TCP address for external workers")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file (for scripts using -listen with port 0)")
		lease      = fs.Duration("lease", 10*time.Second, "lease duration: how long a cell survives without a heartbeat")
		heartbeat  = fs.Duration("heartbeat", 0, "worker heartbeat cadence (0 = lease/5); also bounds cancellation latency")
		retries    = fs.Int("retries", 2, "per-cell retry budget for transient failures and lost leases")
		snapDir    = fs.String("snapshot-dir", "", "root directory for in-proc workers' durable cell state (default: a temp dir)")
		snapEvery  = fs.Uint64("snapshot-every", 0, "periodic cell-snapshot cadence in simulator steps (0 saves only on signal)")
		checkpoint = fs.String("checkpoint", "", "JSONL checkpoint file: completed cells are appended and restored on rerun")
		faultSpecs multiFlag
	)
	fs.Var(&faultSpecs, "fault", "inject a fault (repeatable): distkill:<substr>:<n> | snapfail:<substr>:<n> | distdrop:<substr>:<n> | distdelay:<substr>:<dur> | panic:<substr> | error:<substr> | transient:<substr>:<k>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	grid, err := g.grid()
	if err != nil {
		return fail("%v", err)
	}
	if (*inproc > 0) == (*listen != "") {
		return fail("pick exactly one of -inproc N or -listen ADDR")
	}
	if *inproc < 0 || *retries < 0 {
		return fail("-inproc and -retries must be >= 0")
	}
	set, err := faults.Parse(faultSpecs)
	if err != nil {
		return fail("%v", err)
	}
	if *listen != "" && len(set) > 0 {
		return fail("with -listen, pass -fault to the worker processes instead")
	}
	var cp *harness.Checkpoint
	if *checkpoint != "" {
		if cp, err = harness.OpenCheckpoint(*checkpoint); err != nil {
			return fail("%v", err)
		}
		defer cp.Close()
	}
	coord, err := dist.NewCoordinator(dist.CoordOptions{
		Grid:          grid,
		Lease:         *lease,
		Heartbeat:     *heartbeat,
		Retries:       *retries,
		Seed:          g.seed,
		SnapshotEvery: *snapEvery,
		Checkpoint:    cp,
		Logf:          logf,
	})
	if err != nil {
		return fail("%v", err)
	}
	ctx, cancel := harness.NotifyShutdown(context.Background(), nil, 0,
		func(msg string) { logf("%s", msg) })
	defer cancel()

	if *inproc > 0 {
		root := *snapDir
		if root == "" {
			if root, err = os.MkdirTemp("", "mayafleet-snaps-"); err != nil {
				return fail("%v", err)
			}
			defer os.RemoveAll(root)
		}
		workers := make([]dist.InprocWorker, *inproc)
		for i := range workers {
			workers[i] = dist.InprocWorker{Opts: dist.WorkerOptions{
				Name:    fmt.Sprintf("inproc%d", i),
				SnapDir: filepath.Join(root, fmt.Sprintf("w%d", i)),
				// The fault set is shared fleet-wide: a distkill fires on
				// whichever worker reaches the trigger first, once.
				Faults: set,
				Logf:   logf,
			}}
		}
		rep, ferr := dist.RunFabric(ctx, coord, workers)
		if ferr != nil && ctx.Err() == nil {
			return fail("%v", ferr)
		}
		return emitReport(rep, ctx.Err() != nil)
	}
	return serveTCP(ctx, coord, *listen, *addrFile)
}

// serveTCP runs the coordinator's RPC service on a TCP listener until
// every cell resolves or ctx ends, then reports.
func serveTCP(ctx context.Context, coord *dist.Coordinator, addr, addrFile string) int {
	srv, err := coord.NewServer()
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fail("%v", err)
	}
	defer ln.Close()
	logf("coordinating on %s", ln.Addr())
	if addrFile != "" {
		// Atomic write: a script polling the file must never observe a
		// partially written address.
		if err := snapshot.WriteFileAtomic(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return fail("writing -addr-file: %v", err)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.Serve(ctx)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, aerr := ln.Accept()
			if aerr != nil {
				return // listener closed at shutdown
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()

	<-coord.Done()
	// Linger two heartbeats so idle workers observe the dismissal on
	// their next lease poll and exit cleanly, then shut the transport
	// down: dead-but-connected workers would otherwise hold ServeConn
	// goroutines open indefinitely.
	time.Sleep(2 * coord.Heartbeat())
	_ = ln.Close()
	mu.Lock()
	for _, c := range conns {
		_ = c.Close()
	}
	mu.Unlock()
	wg.Wait()
	return emitReport(coord.Report(), ctx.Err() != nil)
}

func runWork(args []string) int {
	fs := flag.NewFlagSet("mayafleet work", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "", "coordinator address (required)")
		name       = fs.String("name", "", "optional worker label included in the coordinator's logs")
		snapDir    = fs.String("snapshot-dir", "", "directory for durable mid-cell state (default: a temp dir)")
		grace      = fs.Duration("grace", 30*time.Second, "how long the first signal waits for the in-flight cell to snapshot before cancelling")
		leases     = fs.Int("leases", 1, "concurrent cell leases this worker holds and executes")
		faultSpecs multiFlag
	)
	fs.Var(&faultSpecs, "fault", "inject a fault (repeatable): distkill:<substr>:<n> | snapfail:<substr>:<n> | distdrop:<substr>:<n> | distdelay:<substr>:<dur> | panic:<substr> | error:<substr> | transient:<substr>:<k>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		return fail("-addr is required")
	}
	if *grace < 0 {
		return fail("-grace must be >= 0 (got %v)", *grace)
	}
	if *leases < 1 {
		return fail("-leases must be >= 1 (got %d)", *leases)
	}
	set, err := faults.Parse(faultSpecs)
	if err != nil {
		return fail("%v", err)
	}
	dir := *snapDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "mayafleet-worker-"); err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(dir)
	}

	trig := new(snapshot.Trigger)
	ctx, cancel := harness.NotifyShutdown(context.Background(), trig, *grace,
		func(msg string) { logf("%s", msg) })
	defer cancel()

	client, err := rpc.Dial("tcp", *addr)
	if err != nil {
		return fail("dialing coordinator: %v", err)
	}
	defer client.Close()
	w, err := dist.NewWorker(ctx, client, dist.WorkerOptions{
		Name:    *name,
		SnapDir: dir,
		Faults:  set,
		Trigger: trig,
		Leases:  *leases,
		Logf:    logf,
	})
	if err != nil {
		return fail("%v", err)
	}
	logf("registered as %s with %s", w.ID(), *addr)
	if err := w.Run(ctx); err != nil {
		logf("%v", err)
		return 1
	}
	if trig.Fired() || ctx.Err() != nil {
		logf("stopped on signal; in-flight state was uploaded and will migrate")
		return 1
	}
	logf("%s: run complete", w.ID())
	return 0
}
