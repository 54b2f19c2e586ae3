package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func startHTTP(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := openServer(t, cfg)
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, sp Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s body: %v", resp.Request.URL, err)
	}
	return v
}

// TestHTTPLifecycle drives the full API: admit, observe, fetch result;
// plus the 400/404/409 edges and the health/stats endpoints.
func TestHTTPLifecycle(t *testing.T) {
	_, ts := startHTTP(t, Config{Dir: t.TempDir(), Workers: 2})

	// Malformed JSON and bad specs are 400s.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	resp = postSpec(t, ts, Spec{Tenant: "t", Design: "NotADesign", Bench: "mcf", Cores: 1, ROI: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}

	resp = postSpec(t, ts, testSpec("acme", 1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: %d", resp.StatusCode)
	}
	created := decodeBody[map[string]string](t, resp)
	id := created["id"]
	if id == "" {
		t.Fatal("no id in admit response")
	}

	// Unknown session: 404 on every read endpoint.
	for _, path := range []string{"/v1/sessions/nope", "/v1/sessions/nope/result", "/v1/sessions/nope/events"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, r.StatusCode)
		}
	}

	// Poll until done, then fetch the result.
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		info := decodeBody[SessionInfo](t, r)
		if info.State == StateDone {
			if info.Done == 0 || info.Done > info.Total {
				t.Fatalf("progress %d/%d", info.Done, info.Total)
			}
			break
		}
		if info.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("session state %q (%s)", info.State, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, err := http.Get(ts.URL + "/v1/sessions/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decodeBody[map[string]any](t, r)
	if r.StatusCode != http.StatusOK || res["Cores"] == nil {
		t.Fatalf("result: %d %v", r.StatusCode, res)
	}

	// List + stats + health.
	r, err = http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if list := decodeBody[[]SessionInfo](t, r); len(list) != 1 || list[0].ID != id {
		t.Fatalf("list = %+v", list)
	}
	r, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if st := decodeBody[Stats](t, r); st.Completed != 1 {
		t.Fatalf("statsz = %+v", st)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
}

// TestHTTPShedding: an overloaded server answers 429 with a Retry-After
// header and a structured body; a draining server answers 503.
func TestHTTPShedding(t *testing.T) {
	s, ts := startHTTP(t, Config{
		Dir: t.TempDir(), Workers: 1,
		Quotas: Quotas{TenantRunning: 1, TenantQueued: 1, GlobalQueued: 1},
		Faults: mustParse(t, "slowtenant:hog:30s"),
	})

	resp := postSpec(t, ts, testSpec("hog", 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit 1: %d", resp.StatusCode)
	}
	waitRunning(t, s)
	resp = postSpec(t, ts, testSpec("hog", 2))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit 2: %d", resp.StatusCode)
	}

	resp = postSpec(t, ts, testSpec("hog", 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload admit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	body := decodeBody[map[string]any](t, resp)
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if body["retry_after_ms"] == nil || body["reason"] != "tenant queue" {
		t.Fatalf("429 body = %v", body)
	}

	s.Drain()
	resp = postSpec(t, ts, testSpec("acme", 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining admit: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	resp.Body.Close()
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", r.StatusCode)
	}
}

// TestSSE: the event stream carries progress frames, heartbeats while
// the session is merely slow, and ends with the terminal done event.
func TestSSE(t *testing.T) {
	prev := heartbeatEvery
	heartbeatEvery = 20 * time.Millisecond
	defer func() { heartbeatEvery = prev }()

	_, ts := startHTTP(t, Config{
		Dir: t.TempDir(), Workers: 1,
		Faults: mustParse(t, "slowtenant:acme:300ms"),
	})
	resp := postSpec(t, ts, testSpec("acme", 1))
	created := decodeBody[map[string]string](t, resp)
	id := created["id"]

	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}

	var heartbeats, progress int
	var doneEvent string
	sc := bufio.NewScanner(stream.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == ": heartbeat":
			heartbeats++
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				progress++
			case "done":
				doneEvent = data
			}
		}
		if doneEvent != "" {
			break
		}
	}
	if err := sc.Err(); err != nil && doneEvent == "" {
		t.Fatalf("stream error before done: %v", err)
	}
	if doneEvent == "" {
		t.Fatal("stream ended without a done event")
	}
	if heartbeats == 0 {
		t.Fatal("no heartbeats during the 300ms stall")
	}
	if progress == 0 {
		t.Fatal("no progress frames")
	}
	var final SessionInfo
	if err := json.Unmarshal([]byte(doneEvent), &final); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %q: %s", final.State, doneEvent)
	}
}

// TestHTTPRequestSizeBound: an oversized spec body cannot balloon server
// memory — the decoder stops at the MaxBytesReader limit.
func TestHTTPRequestSizeBound(t *testing.T) {
	_, ts := startHTTP(t, Config{Dir: t.TempDir(), Workers: 1})
	huge := fmt.Sprintf(`{"tenant":%q}`, strings.Repeat("x", 1<<17))
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
}
