package dist

import (
	"encoding/json"
	"time"
)

// The wire protocol between workers and the coordinator, carried over
// net/rpc (gob). Workers are the RPC *clients*: they pull leases, push
// heartbeats, and upload state, so a worker behind a partition simply
// goes quiet and the coordinator needs no reverse channel to notice —
// the lease expires on its own.
//
// Every cell-scoped request carries the lease ID it acts under; the
// coordinator rejects stale IDs (lease fencing), so a worker that lost
// its lease to expiry can never smuggle a late Complete or Upload into a
// cell that has since been reassigned.

// RegisterArgs introduces a worker to the coordinator.
type RegisterArgs struct {
	// Name is an optional human label; the coordinator's assigned worker
	// ID is authoritative.
	Name string
}

// RegisterReply hands the worker its identity and the fabric's timing
// parameters, so lease/heartbeat cadence is configured in exactly one
// place.
type RegisterReply struct {
	WorkerID      string
	Lease         time.Duration // lease duration granted per cell
	Heartbeat     time.Duration // interval between heartbeats (< Lease)
	SnapshotEvery uint64        // periodic cell-snapshot cadence in simulator steps
}

// LeaseArgs asks for work.
type LeaseArgs struct {
	WorkerID string
}

// LeaseReply grants a cell (Granted) or dismisses the worker (Done:
// every cell is resolved, or the run was cancelled). With neither, no
// cell waited for a worker within one heartbeat: the worker asks again.
type LeaseReply struct {
	Granted bool
	Done    bool

	LeaseID uint64
	Cell    Cell

	// Snapshot is the previous owner's last uploaded cell-state blob
	// (nil for a fresh cell): the crash-migration payload. The worker
	// writes it to its local snapshot directory and resumes
	// mid-simulation, so a SIGKILLed predecessor costs at most one
	// snapshot interval.
	Snapshot []byte
	// SnapshotSaves is the cumulative durable save count embodied in
	// Snapshot (the resumed-iteration accounting baseline).
	SnapshotSaves int
}

// HeartbeatArgs keeps a lease alive.
type HeartbeatArgs struct {
	WorkerID string
	LeaseID  uint64
}

// HeartbeatReply tells the worker where it stands.
type HeartbeatReply struct {
	// Revoked: the lease is no longer held — it expired and the cell was
	// offered again, or the run ended. The worker must abandon the cell
	// and not Complete it. A cancelled run revokes every lease, which is
	// how coordinator cancellation reaches in-flight cells within one
	// heartbeat interval.
	Revoked bool
}

// UploadArgs ships a cell-state blob to the coordinator after a durable
// local save, making it the migration seed should this worker die.
type UploadArgs struct {
	WorkerID string
	LeaseID  uint64
	State    []byte
	// Saves is the worker's durable save count for this attempt
	// (attempt-relative; the coordinator folds it into the cumulative
	// count).
	Saves int
}

// UploadReply acknowledges (or fences off) an upload.
type UploadReply struct {
	Stale bool // lease no longer held; blob discarded
}

// CompleteArgs reports a finished attempt: a value, or an error with its
// retryability.
type CompleteArgs struct {
	WorkerID  string
	LeaseID   uint64
	Value     json.RawMessage // nil on failure
	Err       string          // non-empty on failure
	Transient bool            // failure is retryable (harness.IsTransient)
	Migrated  bool            // this attempt resumed from a shipped snapshot
	Saves     int             // durable saves performed during this attempt
}

// CompleteReply acknowledges (or fences off) a completion.
type CompleteReply struct {
	Accepted bool // false: stale lease, result discarded
}
