// Command mayaserve runs the crash-resilient simulation service
// (internal/serve) and its client verbs: tenants submit experiment specs
// over HTTP, the daemon schedules them on a bounded worker pool with
// per-tenant admission quotas and load shedding, and every admitted
// session survives kill -9 — the journal plus per-session MAYASNAP
// snapshots let a restarted daemon resume mid-ROI with at most one
// snapshot interval of recomputation.
//
// Usage:
//
//	mayaserve serve   -data-dir DIR [-addr HOST:PORT] [-addr-file FILE]
//	                  [-pid-file FILE] [-workers N] [-snapshot-every N]
//	                  [-tenant-running N] [-tenant-queued N]
//	                  [-global-queued N] [-shed-p99 DUR] [-deadline DUR]
//	                  [-grace 30s] [-jitter-seed S] [-fault SPEC]...
//	mayaserve submit  -addr HOST:PORT -tenant T [-design D] [-bench B]
//	                  [-cores N] [-warmup N] [-roi N] [-seed S]
//	                  [-deadline-ms N] [-retries N]
//	mayaserve wait    -addr HOST:PORT [-timeout DUR] ID...
//	mayaserve result  -addr HOST:PORT ID
//	mayaserve swarm   -addr HOST:PORT [-tenants N] [-per N] [spec flags]
//
// serve owns the data directory: journal.jsonl is the fsync'd session
// manifest (a session is acknowledged only after its record is durable)
// and cells/ holds mid-run simulator state. The first SIGINT/SIGTERM
// starts a graceful drain — admissions get 503, running sessions
// snapshot their exact state and park — and the process exits 0 once
// idle; a second signal or the -grace deadline hard-cancels (exit 1).
// Restarting with the same -data-dir re-admits every unfinished session.
//
// -fault injects service faults for chaos drills (repeatable; see
// faults.Parse), matched against session keys of the form
// serve|<id>|<tenant>|<grid cell key>: slowtenant:<tenant>:<dur> stalls
// that tenant's runs inside their deadline (admission and shedding
// still observable), snapfail:<substr>:<n> fails the n-th snapshot
// write of matching sessions, killsnap:<substr>:<n> (or distkill)
// SIGKILLs the whole daemon at the n-th durable save of a matching
// session — the recovery path's test harness — and panic:, error: and
// transient: fail matching sessions before they run. The fleet's RPC
// faults (distdrop, distdelay) have no site here and exit 2.
//
// submit prints the new session ID on stdout; on a 429 it honors the
// server's Retry-After hint and retries. wait polls until every listed
// session reaches a terminal state, tolerating connection failures so it
// rides through a daemon restart; -timeout bounds it even against a
// daemon that accepts connections and never answers. result prints the session's Results
// JSON verbatim — byte-identical across daemons that computed the same
// session, which is how the chaos smoke test checks recovery.
//
// Exit status: 0 success (serve: clean drain); 1 runtime failure,
// failed/hard-cancelled sessions; 2 usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"mayacache/internal/faults"
	"mayacache/internal/harness"
	"mayacache/internal/serve"
	"mayacache/internal/snapshot"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: mayaserve <serve|submit|wait|result|swarm> [flags]")
	fmt.Fprintln(os.Stderr, "run 'mayaserve <subcommand> -h' for subcommand flags")
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "submit":
		return runSubmit(args[1:])
	case "wait":
		return runWait(args[1:])
	case "result":
		return runResult(args[1:])
	case "swarm":
		return runSwarm(args[1:])
	case "-h", "-help", "--help":
		return usage()
	default:
		fmt.Fprintf(os.Stderr, "mayaserve: unknown subcommand %q\n", args[0])
		return usage()
	}
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "mayaserve: "+format+"\n", args...)
	return 2
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mayaserve: "+format+"\n", args...)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func runServe(args []string) int {
	fs := flag.NewFlagSet("mayaserve serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:0", "TCP listen address (port 0 picks a free port; see -addr-file)")
		addrFile      = fs.String("addr-file", "", "write the bound address to this file (atomic) for scripts")
		pidFile       = fs.String("pid-file", "", "write the daemon PID to this file (atomic)")
		dataDir       = fs.String("data-dir", "", "durable data directory: session journal + cell snapshots (required)")
		workers       = fs.Int("workers", 0, "concurrently running sessions (0 = GOMAXPROCS)")
		snapEvery     = fs.Uint64("snapshot-every", 0, "auto-snapshot cadence in simulator steps (0 = default; bounds crash loss)")
		tenantRunning = fs.Int("tenant-running", 0, "max running sessions per tenant (0 = default, <0 = unbounded)")
		tenantQueued  = fs.Int("tenant-queued", 0, "max queued sessions per tenant (0 = default, <0 = unbounded)")
		globalQueued  = fs.Int("global-queued", 0, "max queued sessions overall (0 = default, <0 = unbounded)")
		shedP99       = fs.Duration("shed-p99", 0, "shed admissions while p99 session latency exceeds this (0 disables)")
		deadline      = fs.Duration("deadline", 0, "default per-session run deadline (0 = none)")
		grace         = fs.Duration("grace", 30*time.Second, "drain window: how long the first signal waits for snapshots before hard-cancelling")
		jitterSeed    = fs.Uint64("jitter-seed", 1, "seed for the Retry-After jitter stream")
		faultSpecs    multiFlag
	)
	fs.Var(&faultSpecs, "fault", "inject a fault (repeatable): slowtenant:<tenant>:<dur> | snapfail:<substr>:<n> | killsnap:<substr>:<n> | panic:<substr> | error:<substr> | transient:<substr>:<k>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dataDir == "" {
		return fail("-data-dir is required")
	}
	set, err := faults.Parse(faultSpecs)
	if err != nil {
		return fail("%v", err)
	}
	if err := set.Within(faults.PreRun | faults.PreSave | faults.Save); err != nil {
		return fail("%v", err)
	}
	s, err := serve.Open(serve.Config{
		Dir:           *dataDir,
		Workers:       *workers,
		SnapshotEvery: *snapEvery,
		Quotas: serve.Quotas{
			TenantRunning: *tenantRunning,
			TenantQueued:  *tenantQueued,
			GlobalQueued:  *globalQueued,
		},
		ShedP99:     *shedP99,
		RunDeadline: *deadline,
		JitterSeed:  *jitterSeed,
		Faults:      set,
		Logf:        logf,
	})
	if err != nil {
		return fail("%v", err)
	}

	// Two-stage shutdown: the first signal drains (stop admitting, fire
	// the snapshot trigger so running sessions persist exact state); the
	// grace deadline or a second signal hard-cancels.
	ctx, cancel := harness.NotifyShutdown(context.Background(), s.Trigger(), *grace,
		func(msg string) {
			logf("%s", msg)
			s.Drain()
		})
	defer cancel()
	s.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = s.Close()
		return fail("%v", err)
	}
	logf("serving on %s (data under %s)", ln.Addr(), *dataDir)
	if *addrFile != "" {
		if err := snapshot.WriteFileAtomic(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			_ = ln.Close()
			_ = s.Close()
			return fail("writing -addr-file: %v", err)
		}
	}
	if *pidFile != "" {
		pid := strconv.Itoa(os.Getpid())
		if err := snapshot.WriteFileAtomic(*pidFile, []byte(pid), 0o644); err != nil {
			_ = ln.Close()
			_ = s.Close()
			return fail("writing -pid-file: %v", err)
		}
	}

	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	code := 0
	select {
	case err := <-errCh:
		logf("http server: %v", err)
		code = 1
	case <-s.Done():
		// Workers parked: either the drain finished (exit clean, possibly
		// well before the grace deadline) or the context was hard-cancelled.
		if ctx.Err() != nil {
			logf("hard-cancelled; unfinished sessions resume on next start")
			code = 1
		} else {
			logf("drained; unfinished sessions resume on next start")
		}
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = httpSrv.Shutdown(shutCtx)
	shutCancel()
	if err := s.Close(); err != nil {
		logf("closing: %v", err)
		code = 1
	}
	return code
}

// specFlags registers the experiment-spec flag group shared by submit
// and swarm.
type specFlags struct {
	tenant     string
	design     string
	bench      string
	cores      int
	warmup     uint64
	roi        uint64
	seed       uint64
	deadlineMS int64
}

func addSpecFlags(fs *flag.FlagSet) *specFlags {
	sp := &specFlags{}
	fs.StringVar(&sp.tenant, "tenant", "", "tenant identifier for quota accounting (required for submit)")
	fs.StringVar(&sp.design, "design", "Maya", "cache design to simulate")
	fs.StringVar(&sp.bench, "bench", "mcf", "workload profile")
	fs.IntVar(&sp.cores, "cores", 1, "simulated core count")
	fs.Uint64Var(&sp.warmup, "warmup", 100_000, "warmup instructions per core")
	fs.Uint64Var(&sp.roi, "roi", 200_000, "measured instructions per core")
	fs.Uint64Var(&sp.seed, "seed", 1, "simulation seed")
	fs.Int64Var(&sp.deadlineMS, "deadline-ms", 0, "per-session run deadline in ms (0 = server default)")
	return sp
}

func (sp *specFlags) spec() serve.Spec {
	return serve.Spec{
		Tenant: sp.tenant, Design: sp.design, Bench: sp.bench,
		Cores: sp.cores, Warmup: sp.warmup, ROI: sp.roi, Seed: sp.seed,
		DeadlineMS: sp.deadlineMS,
	}
}

// submitOnce POSTs one spec. It returns the session ID, or a retry hint
// (>0) when the server shed the request, or a terminal error.
func submitOnce(base string, sp serve.Spec) (id string, retryAfter time.Duration, err error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", 0, err
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusCreated:
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(payload, &created); err != nil || created.ID == "" {
			return "", 0, fmt.Errorf("bad admit response: %s", payload)
		}
		return created.ID, 0, nil
	case http.StatusTooManyRequests:
		var shed struct {
			RetryAfterMS int64 `json:"retry_after_ms"`
		}
		_ = json.Unmarshal(payload, &shed)
		ra := time.Duration(shed.RetryAfterMS) * time.Millisecond
		if ra <= 0 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				ra = time.Duration(secs) * time.Second
			}
		}
		if ra <= 0 {
			ra = time.Second
		}
		return "", ra, nil
	case http.StatusServiceUnavailable:
		return "", 0, fmt.Errorf("server draining: %s", payload)
	default:
		return "", 0, fmt.Errorf("admit failed (%d): %s", resp.StatusCode, payload)
	}
}

// submitRetrying submits with shed-aware backoff: each 429 is retried
// after the server's (already jittered) Retry-After hint, capped so a
// pathological hint cannot stall the client forever.
func submitRetrying(base string, sp serve.Spec, retries int, maxWait time.Duration) (string, error) {
	for attempt := 0; ; attempt++ {
		id, retryAfter, err := submitOnce(base, sp)
		if err != nil {
			return "", err
		}
		if id != "" {
			return id, nil
		}
		if attempt >= retries {
			return "", fmt.Errorf("shed %d times; giving up", attempt+1)
		}
		if retryAfter > maxWait {
			retryAfter = maxWait
		}
		logf("shed; retrying in %s (%d/%d)", retryAfter.Round(time.Millisecond), attempt+1, retries)
		time.Sleep(retryAfter)
	}
}

func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

func runSubmit(args []string) int {
	fs := flag.NewFlagSet("mayaserve submit", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address (required)")
	retries := fs.Int("retries", 10, "how many 429 sheds to retry through")
	maxWait := fs.Duration("max-wait", 15*time.Second, "cap on a single Retry-After backoff")
	sp := addSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" || sp.tenant == "" {
		return fail("-addr and -tenant are required")
	}
	id, err := submitRetrying(baseURL(*addr), sp.spec(), *retries, *maxWait)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(id)
	return 0
}

// fetchSession GETs one session's state, bounded by ctx. Connection
// errors return (nil, err) so wait can ride through a daemon restart.
func fetchSession(ctx context.Context, base, id string) (*serve.SessionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("session %s: %d: %s", id, resp.StatusCode, payload)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// waitAll polls until every session is terminal or the timeout passes;
// each request is bounded by the time left, so a hung daemon cannot hold
// it past the deadline. It tolerates connection failures — the daemon
// may be mid-restart — and only fails when a session reports a terminal
// error or time runs out. It returns the exit code and the last state
// seen of each session.
func waitAll(base string, ids []string, timeout time.Duration) (int, map[string]*serve.SessionInfo) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	seen := map[string]*serve.SessionInfo{}
	pending := map[string]bool{}
	for _, id := range ids {
		pending[id] = true
	}
	code := 0
	for len(pending) > 0 {
		for _, id := range ids {
			if !pending[id] {
				continue
			}
			info, err := fetchSession(ctx, base, id)
			if err != nil {
				continue // daemon down, restarting, or hung: poll until the deadline
			}
			seen[id] = info
			switch info.State {
			case serve.StateDone:
				logf("%s done (%d/%d instructions)", id, info.Done, info.Total)
				delete(pending, id)
			case serve.StateFailed:
				logf("%s FAILED: %s", id, info.Error)
				delete(pending, id)
				code = 1
			}
		}
		if len(pending) > 0 {
			harness.Sleep(ctx, 100*time.Millisecond)
		}
		if ctx.Err() != nil && len(pending) > 0 {
			for _, id := range ids {
				if pending[id] {
					logf("timed out waiting for %s", id)
				}
			}
			return 1, seen
		}
	}
	return code, seen
}

func runWait(args []string) int {
	fs := flag.NewFlagSet("mayaserve wait", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address (required)")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" || fs.NArg() == 0 {
		return fail("usage: mayaserve wait -addr HOST:PORT ID...")
	}
	code, _ := waitAll(baseURL(*addr), fs.Args(), *timeout)
	return code
}

func runResult(args []string) int {
	fs := flag.NewFlagSet("mayaserve result", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" || fs.NArg() != 1 {
		return fail("usage: mayaserve result -addr HOST:PORT ID")
	}
	resp, err := http.Get(baseURL(*addr) + "/v1/sessions/" + fs.Arg(0) + "/result")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		logf("%v", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		logf("result %s: %d: %s", fs.Arg(0), resp.StatusCode, payload)
		return 1
	}
	if _, err := os.Stdout.Write(payload); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// runSwarm is the multi-tenant load client: -tenants T each submit -per
// sessions (seeds varied per session), all with shed-aware backoff, then
// wait for every terminal state and print a TSV summary.
func runSwarm(args []string) int {
	fs := flag.NewFlagSet("mayaserve swarm", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address (required)")
	tenants := fs.Int("tenants", 3, "number of synthetic tenants")
	per := fs.Int("per", 2, "sessions per tenant")
	retries := fs.Int("retries", 20, "how many 429 sheds to retry through, per session")
	maxWait := fs.Duration("max-wait", 15*time.Second, "cap on a single Retry-After backoff")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	sp := addSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		return fail("-addr is required")
	}
	if *tenants < 1 || *per < 1 {
		return fail("-tenants and -per must be >= 1")
	}
	base := baseURL(*addr)
	var ids []string
	for t := 0; t < *tenants; t++ {
		for k := 0; k < *per; k++ {
			spec := sp.spec()
			spec.Tenant = fmt.Sprintf("tenant%02d", t)
			spec.Seed = sp.seed + uint64(t**per+k)
			id, err := submitRetrying(base, spec, *retries, *maxWait)
			if err != nil {
				logf("submitting for %s: %v", spec.Tenant, err)
				return 1
			}
			logf("%s admitted as %s", spec.Tenant, id)
			ids = append(ids, id)
		}
	}
	code, seen := waitAll(base, ids, *timeout)
	for _, id := range ids {
		info := seen[id]
		if info == nil {
			fmt.Printf("%s\tUNKNOWN\tno state seen before the timeout\n", id)
			code = 1
			continue
		}
		fmt.Printf("%s\t%s\t%s\n", id, info.Tenant, info.State)
	}
	return code
}
