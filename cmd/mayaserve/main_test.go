package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestWaitAllHonoursTimeoutAgainstHungDaemon: a daemon that accepts a
// request and never answers must not hold wait past its -timeout; it
// exits 1 with the timed-out message instead.
func TestWaitAllHonoursTimeoutAgainstHungDaemon(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	const timeout = 300 * time.Millisecond
	start := time.Now()
	code, _ := waitAll(ts.URL, []string{"s000001", "s000002"}, timeout)
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Fatalf("waitAll took %v against a hung daemon, want about the %v timeout", elapsed, timeout)
	}
	if code != 1 {
		t.Fatalf("waitAll exit code %d, want 1", code)
	}
}
