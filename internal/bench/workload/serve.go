package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mayacache/internal/cachesim"
	"mayacache/internal/experiments"
	"mayacache/internal/metrics"
	"mayacache/internal/serve"
)

// sessionBenches alternate across each client's sessions.
var sessionBenches = []string{"mcf", "lbm"}

// sessionSpec is session k of client c: a 1-core Maya cell.
func sessionSpec(r *runner, c, k int) serve.Spec {
	return serve.Spec{
		Tenant: fmt.Sprintf("client%d", c), Design: string(experiments.DesignMaya),
		Bench: sessionBenches[k%len(sessionBenches)], Cores: 1,
		Warmup: r.sc.SessWarmup, ROI: r.sc.SessROI, Seed: r.seed,
	}
}

// clients is the number of closed-loop clients; the service they share
// runs one worker, so one client's session queues behind the other's.
const clients = 2

// serveEpoch is how long the clients run between two yardstick passes.
const serveEpoch = time.Second

// service is a session server behind an httptest listener, journaling
// into a scratch directory under TMPDIR.
type service struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
	// sent counts each client's sessions, so the benchmarks alternate
	// across epochs.
	sent [clients]int
}

func openService(r *runner) (*service, error) {
	dir, err := os.MkdirTemp("", "serve-closed-")
	if err != nil {
		return nil, err
	}
	s, err := serve.Open(serve.Config{Dir: dir, Workers: 1, SnapshotEvery: r.sc.SessSnapEvery})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s.Start(r.ctx)
	return &service{dir: dir, srv: s, ts: httptest.NewServer(s.Handler())}, nil
}

// close stops the listener and the workers and removes the journal.
func (sv *service) close() error {
	sv.ts.Close()
	err := sv.srv.Close()
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// sessionOutcome is one session as its client saw it.
type sessionOutcome struct {
	bench           string
	admit, turnover time.Duration
	shed            bool
	result          []byte
	err             error
}

// session submits sp, follows its event stream until the done event, and
// fetches its result. turnover runs from the POST to the done event.
func session(c *http.Client, base string, sp serve.Spec) sessionOutcome {
	o := sessionOutcome{bench: sp.Bench}
	body, err := json.Marshal(sp)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := c.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	o.admit = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		o.err = err
		return o
	case resp.StatusCode == http.StatusTooManyRequests:
		o.shed = true
		return o
	case resp.StatusCode != http.StatusCreated:
		o.err = fmt.Errorf("admit: %d: %s", resp.StatusCode, payload)
		return o
	}
	var created struct{ ID string }
	if err := json.Unmarshal(payload, &created); err != nil {
		o.err = fmt.Errorf("admit: %w", err)
		return o
	}
	info, err := awaitDone(c, base, created.ID)
	o.turnover = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	if info.State != serve.StateDone {
		o.err = fmt.Errorf("session %s ended %s: %s", created.ID, info.State, info.Error)
		return o
	}
	resp, err = c.Get(base + "/v1/sessions/" + created.ID + "/result")
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.result, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result %s: %d: %s", created.ID, resp.StatusCode, o.result)
	}
	o.err = err
	return o
}

// awaitDone reads the session's server-sent events until the done event
// and returns the session it carries.
func awaitDone(c *http.Client, base, id string) (*serve.SessionInfo, error) {
	resp, err := c.Get(base + "/v1/sessions/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var info serve.SessionInfo
			if err := json.Unmarshal([]byte(data), &info); err != nil {
				return nil, fmt.Errorf("events %s: %w", id, err)
			}
			return &info, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events %s: %w", id, err)
	}
	return nil, fmt.Errorf("events %s: stream ended before the done event", id)
}

// closedLoop runs the clients against sv until the given time: each
// client submits a session, waits for it, and only then submits the next,
// and runs at least one. It returns every session in client order.
func closedLoop(r *runner, sv *service, until time.Time) []sessionOutcome {
	per := make([][]sessionOutcome, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: time.Minute}
			for k := 0; k == 0 || time.Now().Before(until) && r.ctx.Err() == nil; k++ {
				per[c] = append(per[c], session(client, sv.ts.URL, sessionSpec(r, c, sv.sent[c])))
				sv.sent[c]++
			}
			client.CloseIdleConnections()
		}(c)
	}
	wg.Wait()
	var all []sessionOutcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// checkSessions counts the sessions and fails the shed, broken and
// mismatched ones: every session of a spec must return the same bytes,
// and on the reference seed the pinned ones.
func (r *runner) checkSessions(all []sessionOutcome) {
	r.attempted += len(all)
	for _, o := range all {
		switch {
		case o.shed:
			r.fail(1, "a %s session was shed", o.bench)
		case o.err != nil:
			r.fail(1, "%v", o.err)
		default:
			sum, err := digest(json.RawMessage(o.result))
			if err != nil {
				r.fail(1, "%s session result: %v", o.bench, err)
				continue
			}
			want := ""
			if p := r.pinned(); p != nil {
				want = p.Serve[o.bench]
			}
			r.agree(o.bench+" session", sum, want, 1)
		}
	}
}

// runServe measures serve-closed: one op is a session, timed from its
// POST to its done event; set-up is opening the service. The clients run
// in epochs of serveEpoch until the window closes, and the yardstick runs
// between epochs, when no session is in flight.
func runServe(r *runner) error {
	if err := r.timeSetups(func() (func() error, error) {
		sv, err := openService(r)
		if err != nil {
			return nil, err
		}
		return sv.close, nil
	}); err != nil {
		return err
	}
	sv, err := openService(r)
	if err != nil {
		return err
	}
	var all []sessionOutcome
	var window time.Duration // the epochs' time, without the yardstick's
	r.startWindow()
	for n := 0; r.more(n); n++ {
		t := time.Now()
		end := t.Add(serveEpoch)
		if shut := r.start.Add(r.window); shut.Before(end) {
			end = shut
		}
		all = append(all, closedLoop(r, sv, end)...)
		window += time.Since(t)
		r.yardstick()
	}
	if err := sv.close(); err != nil {
		return err
	}
	r.checkSessions(all)
	done := 0
	for _, o := range all {
		if !o.shed && o.err == nil {
			r.opMS = append(r.opMS, ms(o.turnover))
			done++
		}
	}
	r.note("sessions_per_s", float64(done)/window.Seconds(), "1/s")
	r.note("session_p50_ms", metrics.Median(r.opMS), "ms")
	return nil
}

// traceServe reports the service's own layers: admission and session
// latency tails from a closed-loop window, the share of a session's
// latency that is simulation (the same cell run directly through
// experiments.RunGridCell), and snapshot encode/restore cost on a
// session-shaped System and on the 8-core Maya System.
func traceServe(r *runner) (map[string]float64, error) {
	sv, err := openService(r)
	if err != nil {
		return nil, err
	}
	r.startWindow()
	all := closedLoop(r, sv, r.start.Add(r.window))
	shed := sv.srv.StatsNow().Shed
	if err := sv.close(); err != nil {
		return nil, err
	}
	r.checkSessions(all)
	var admits, turns []float64
	for _, o := range all {
		if !o.shed && o.err == nil {
			admits = append(admits, ms(o.admit))
			turns = append(turns, ms(o.turnover))
		}
	}
	at, st := tailOf(admits), tailOf(turns)
	out := map[string]float64{
		"serve.admit_p50_ms":    at.Median,
		"serve.admit_tail_ms":   at.Value,
		"serve.session_tail_ms": st.Value,
		"serve.tail_pct":        float64(st.Pct),
		"serve.sessions":        float64(st.N),
		"serve.shed":            float64(shed),
	}

	var direct []float64
	for k := 0; k < 2*len(sessionBenches); k++ {
		sp := sessionSpec(r, 0, k)
		runtime.GC()
		t := time.Now()
		if _, err := experiments.RunGridCell(r.ctx, experiments.DesignMaya, sp.Bench, sp.Cores, sp.Scale()); err != nil {
			return nil, err
		}
		direct = append(direct, ms(time.Since(t)))
	}
	out["serve.sim_share"] = ratio(metrics.Median(direct), st.Median)

	sessionSys := func() (*cachesim.System, error) {
		llc, err := experiments.NewLLCChecked(experiments.DesignMaya, experiments.LLCOptions{Cores: 1, Seed: r.seed, FastHash: true})
		if err != nil {
			return nil, err
		}
		return newSystem(llc, sessionBenches[:1], r.seed, nil)
	}
	mix8Sys := func() (*cachesim.System, error) { return buildMix(experiments.DesignMaya, r.seed) }
	for _, shape := range []struct {
		name  string
		build func() (*cachesim.System, error)
	}{{"session", sessionSys}, {"mix8", mix8Sys}} {
		enc, res, size, err := snapshotCost(r, shape.build)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", shape.name, err)
		}
		out["snapshot."+shape.name+".encode_ms"] = enc
		out["snapshot."+shape.name+".restore_ms"] = res
		out["snapshot."+shape.name+".bytes"] = float64(size)
	}
	return out, nil
}

// snapshotReps is how many encodes and restores snapshotCost times.
const snapshotReps = 5

// snapshotCost runs a System built by build for the session budgets, then
// times EncodeState on it and RestoreState into fresh twins; it returns
// the median encode and restore times in ms and the snapshot's size. A
// restored twin must encode to the same bytes.
func snapshotCost(r *runner, build func() (*cachesim.System, error)) (encMS, resMS float64, size int, err error) {
	sys, err := build()
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := cachesim.Run(r.ctx, sys, cachesim.RunSpec{Warmup: r.sc.SessWarmup, ROI: r.sc.SessROI}); err != nil {
		return 0, 0, 0, err
	}
	var state []byte
	var enc, res []float64
	for i := 0; i < snapshotReps; i++ {
		runtime.GC()
		t := time.Now()
		state, err = sys.EncodeState()
		if err != nil {
			return 0, 0, 0, err
		}
		enc = append(enc, ms(time.Since(t)))
	}
	for i := 0; i < snapshotReps; i++ {
		twin, err := build()
		if err != nil {
			return 0, 0, 0, err
		}
		runtime.GC()
		t := time.Now()
		if err := twin.RestoreState(state); err != nil {
			return 0, 0, 0, err
		}
		res = append(res, ms(time.Since(t)))
		again, err := twin.EncodeState()
		if err != nil {
			return 0, 0, 0, err
		}
		if !bytes.Equal(again, state) {
			r.fail(1, "a restored System encodes to different bytes")
		}
	}
	return metrics.Median(enc), metrics.Median(res), len(state), nil
}
