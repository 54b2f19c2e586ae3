// Package serve is the simulation-as-a-service layer: a long-running,
// crash-resilient session scheduler over the same machinery the batch
// CLIs use — harness.RunAttempt of experiments.RunGridCell for execution,
// snapshot.Cell for durable mid-run state, and the harness checkpoint as
// a journaled session manifest.
//
// Robustness contract (DESIGN.md §12):
//
//   - Admission control: per-tenant quotas on queued and concurrently
//     running sessions, a global queue cap, and a p99-latency watermark.
//     An overloaded server sheds with a structured ShedError carrying a
//     jittered Retry-After hint instead of queueing unboundedly.
//   - Graceful degradation: per-session deadlines, cooperative
//     cancellation, and a two-stage drain — stop admitting, fire the
//     snapshot trigger so running sessions persist exact simulator state,
//     then hard-cancel after the grace window.
//   - Crash recovery: a session is admitted only after its journal record
//     is fsynced, so kill -9 at any instant loses no acknowledged
//     session; on restart every unfinished session is re-admitted and
//     resumes from its last durable snapshot (at most one snapshot
//     interval of work is repeated).
//   - Progress streaming: per-session mc.Tracker counts retired
//     instructions; the HTTP layer forwards them as server-sent events
//     with heartbeats so clients can tell "slow" from "dead".
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mayacache/internal/cachemodel"
	"mayacache/internal/experiments"
	"mayacache/internal/trace"
)

// Limits on accepted specs: a service must bound the work one request can
// demand. A 16-core, 1G-instruction session is already hours of CPU.
const (
	MaxCores     = 16
	MaxInstr     = 1 << 30
	maxTenantLen = 32
)

// ErrBadSpec tags spec validation failures (HTTP 400).
var ErrBadSpec = errors.New("serve: invalid spec")

// ErrDraining rejects admissions during shutdown (HTTP 503).
var ErrDraining = errors.New("serve: draining, not admitting")

// Spec is one tenant's experiment request: a single grid cell of the
// sweep space, exactly the unit the distributed fleet schedules.
type Spec struct {
	// Tenant identifies the requesting tenant for quota accounting
	// ([a-z0-9_-], 1..32 chars).
	Tenant string `json:"tenant"`
	// Design is a design registered with cachemodel (e.g. "Maya",
	// "Mirage", "Baseline", "CEASER").
	Design string `json:"design"`
	// Bench is a workload profile name (e.g. "mcf", "lbm").
	Bench string `json:"bench"`
	// Cores is the simulated core count (homogeneous mix).
	Cores int `json:"cores"`
	// Warmup and ROI are per-core instruction budgets.
	Warmup uint64 `json:"warmup"`
	ROI    uint64 `json:"roi"`
	// Seed drives workloads, cache keys, and eviction randomness.
	Seed uint64 `json:"seed"`
	// DeadlineMS optionally caps this session's run time in milliseconds;
	// 0 inherits the server default. A session past its deadline fails
	// terminally (it does not resume).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Validate checks the spec against the service's admission rules.
func (sp Spec) Validate() error {
	if sp.Tenant == "" || len(sp.Tenant) > maxTenantLen {
		return badSpecf("tenant must be 1..%d characters", maxTenantLen)
	}
	for _, r := range sp.Tenant {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return badSpecf("tenant %q: only [a-z0-9_-] allowed", sp.Tenant)
		}
	}
	if _, err := cachemodel.Lookup(sp.Design); err != nil {
		return badSpecf("unknown design %q", sp.Design)
	}
	if _, err := trace.Lookup(sp.Bench); err != nil {
		return badSpecf("unknown benchmark %q", sp.Bench)
	}
	if sp.Cores < 1 || sp.Cores > MaxCores {
		return badSpecf("cores must be 1..%d, got %d", MaxCores, sp.Cores)
	}
	if sp.ROI == 0 {
		return badSpecf("roi must be positive")
	}
	if sp.Warmup > MaxInstr || sp.ROI > MaxInstr {
		return badSpecf("warmup/roi must be <= %d instructions", uint64(MaxInstr))
	}
	if sp.DeadlineMS < 0 {
		return badSpecf("deadline_ms must be >= 0")
	}
	return nil
}

// Scale converts the spec's instruction budgets to the experiment layer's
// scale.
func (sp Spec) Scale() experiments.Scale {
	return experiments.Scale{WarmupInstr: sp.Warmup, ROIInstr: sp.ROI, Seed: sp.Seed}
}

// TotalInstr is the session's progress-tracker target: retired
// instructions across all cores and both phases.
func (sp Spec) TotalInstr() uint64 {
	return uint64(sp.Cores) * (sp.Warmup + sp.ROI)
}

func badSpecf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// ShedError is the structured load-shedding rejection (HTTP 429): the
// server is protecting itself and the hint tells the client when a retry
// has a chance.
type ShedError struct {
	// Reason names the exhausted resource ("tenant queue", "global
	// queue", "latency watermark").
	Reason string
	// RetryAfter is the jittered backoff hint.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %s", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Session states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Outcome is the journaled terminal record of a session: exactly one of
// Result (raw JSON of cachesim.Results, preserved byte-for-byte through
// recovery) or Error.
type Outcome struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}
