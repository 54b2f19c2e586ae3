package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"mayacache/internal/faults"
	"mayacache/internal/serve"
)

// ServeResult is one load scenario against the mayaserve session service,
// measured over its real HTTP surface (httptest transport, so numbers
// exclude kernel TCP but include the full handler + scheduler path).
type ServeResult struct {
	Label    string `json:"label"`
	Workers  int    `json:"workers"`
	Sessions int    `json:"sessions"`
	// Admitted/Shed partition the submissions; ShedRate = Shed/Submitted.
	Submitted int     `json:"submitted"`
	Shed      int     `json:"shed"`
	ShedRate  float64 `json:"shed_rate"`
	// AdmitP50/P99 are POST /v1/sessions round-trip latencies (the
	// journal fsync is on this path); Turnaround is admit → done.
	AdmitP50MS     float64 `json:"admit_p50_ms"`
	AdmitP99MS     float64 `json:"admit_p99_ms"`
	TurnP50MS      float64 `json:"turnaround_p50_ms"`
	TurnP99MS      float64 `json:"turnaround_p99_ms"`
	Seconds        float64 `json:"seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
}

// benchSpec is the pinned per-session workload: one core of the "mcf"
// profile, small enough that a steady run is scheduler-bound rather than
// simulator-bound.
func benchSpec(tenant string, seed uint64, warmup, roi uint64) serve.Spec {
	return serve.Spec{
		Tenant: tenant, Design: "Maya", Bench: "mcf",
		Cores: 1, Warmup: warmup, ROI: roi, Seed: seed,
	}
}

func percentileMS(durs []time.Duration, p int) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[(len(sorted)-1)*p/100].Microseconds()) / 1000
}

// submitBench POSTs one spec, returning the session ID ("" if shed) and
// the admission round-trip latency.
func submitBench(base string, sp serve.Spec) (id string, shed bool, latency time.Duration, err error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", false, 0, err
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	latency = time.Since(start)
	if err != nil {
		return "", false, latency, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		var created struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			return "", false, latency, err
		}
		return created.ID, false, latency, nil
	case http.StatusTooManyRequests:
		return "", true, latency, nil
	default:
		return "", false, latency, fmt.Errorf("admit: unexpected status %d", resp.StatusCode)
	}
}

// RunServeSteady measures the service under its intended load: sessions
// submitted over HTTP into an adequately provisioned worker pool, every
// one admitted and completed. Reports admission and turnaround latency
// percentiles plus completed sessions/sec.
func RunServeSteady(sessions, workers int, warmup, roi, seed uint64) (ServeResult, error) {
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return ServeResult{}, err
	}
	defer os.RemoveAll(dir)
	s, err := serve.Open(serve.Config{
		Dir: dir, Workers: workers,
		// Unbounded quotas: this scenario measures throughput, not shedding.
		Quotas: serve.Quotas{TenantRunning: -1, TenantQueued: -1, GlobalQueued: -1},
	})
	if err != nil {
		return ServeResult{}, err
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Close()
	}()

	admits := make([]time.Duration, 0, sessions)
	admitted := make([]string, 0, sessions)
	admitTime := map[string]time.Time{}
	start := time.Now()
	for i := 0; i < sessions; i++ {
		tenant := fmt.Sprintf("tenant%02d", i%4)
		id, shed, lat, err := submitBench(ts.URL, benchSpec(tenant, seed+uint64(i), warmup, roi))
		if err != nil {
			return ServeResult{}, err
		}
		if shed {
			return ServeResult{}, fmt.Errorf("steady scenario shed a session (quotas are unbounded?)")
		}
		admits = append(admits, lat)
		admitted = append(admitted, id)
		admitTime[id] = time.Now()
	}

	turns := make([]time.Duration, 0, sessions)
	deadline := time.Now().Add(5 * time.Minute)
	for _, id := range admitted {
		for {
			if time.Now().After(deadline) {
				return ServeResult{}, fmt.Errorf("session %s did not finish in time", id)
			}
			info := s.Session(id)
			if info == nil {
				return ServeResult{}, fmt.Errorf("session %s vanished", id)
			}
			if info.State == serve.StateDone {
				turns = append(turns, time.Since(admitTime[id]))
				break
			}
			if info.State == serve.StateFailed {
				return ServeResult{}, fmt.Errorf("session %s failed: %s", id, info.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	return ServeResult{
		Label:          "steady",
		Workers:        workers,
		Sessions:       sessions,
		Submitted:      sessions,
		AdmitP50MS:     percentileMS(admits, 50),
		AdmitP99MS:     percentileMS(admits, 99),
		TurnP50MS:      percentileMS(turns, 50),
		TurnP99MS:      percentileMS(turns, 99),
		Seconds:        elapsed.Seconds(),
		SessionsPerSec: float64(sessions) / elapsed.Seconds(),
	}, nil
}

// RunServeOverload measures admission control doing its job: one worker
// pinned by a slow tenant, tight quotas, and a burst of submissions. The
// interesting number is the shed rate — how much of the burst the server
// refused (with Retry-After) instead of queueing unboundedly.
func RunServeOverload(burst int, warmup, roi, seed uint64) (ServeResult, error) {
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return ServeResult{}, err
	}
	defer os.RemoveAll(dir)
	slow, err := faults.Parse([]string{"slowtenant:hog:1m"})
	if err != nil {
		return ServeResult{}, err
	}
	s, err := serve.Open(serve.Config{
		Dir: dir, Workers: 1,
		Quotas:     serve.Quotas{TenantRunning: 1, TenantQueued: 2, GlobalQueued: 4},
		JitterSeed: seed,
		Faults:     slow,
	})
	if err != nil {
		return ServeResult{}, err
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Close()
	}()

	admits := make([]time.Duration, 0, burst)
	shed := 0
	start := time.Now()
	for i := 0; i < burst; i++ {
		_, wasShed, lat, err := submitBench(ts.URL, benchSpec("hog", seed+uint64(i), warmup, roi))
		if err != nil {
			return ServeResult{}, err
		}
		admits = append(admits, lat)
		if wasShed {
			shed++
		}
	}
	elapsed := time.Since(start)
	return ServeResult{
		Label:      "overload",
		Workers:    1,
		Submitted:  burst,
		Shed:       shed,
		ShedRate:   float64(shed) / float64(burst),
		AdmitP50MS: percentileMS(admits, 50),
		AdmitP99MS: percentileMS(admits, 99),
		Seconds:    elapsed.Seconds(),
	}, nil
}

// runServeSuite runs both scenarios at the suite's scale.
func runServeSuite(quick bool, seed uint64) ([]ServeResult, error) {
	sessions, workers := 24, 4
	warmup, roi := uint64(20_000), uint64(30_000)
	burst := 32
	if quick {
		sessions, burst = 8, 16
	}
	steady, err := RunServeSteady(sessions, workers, warmup, roi, seed)
	if err != nil {
		return nil, fmt.Errorf("serve steady: %w", err)
	}
	over, err := RunServeOverload(burst, warmup, roi, seed)
	if err != nil {
		return nil, fmt.Errorf("serve overload: %w", err)
	}
	return []ServeResult{steady, over}, nil
}
