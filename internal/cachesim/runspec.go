package cachesim

// The run entrypoint: one call covers a fresh run, the continuation of a
// restored System, sweep-cell persistence, and the deterministic parallel
// mode, each selected by the RunSpec.

import (
	"context"
	"errors"
	"fmt"

	"mayacache/internal/mc"
	"mayacache/internal/snapshot"
)

// ErrSpent reports a run attempt on a System whose state was consumed by
// an earlier failed or cancelled run. Simulation state is never rewound
// on error, so continuing would compute garbage; rebuild the System or
// RestoreState a snapshot into it instead.
var ErrSpent = errors.New("cachesim: system state consumed by a failed run; rebuild or restore before running again")

// RunSpec describes one simulation run.
type RunSpec struct {
	// Warmup and ROI are the per-core instruction budgets for the two
	// phases. Ignored when the System resumes from restored or cell state,
	// which carries its own budgets.
	Warmup, ROI uint64

	// Cell, when non-nil, runs under the sweep-cell snapshot protocol: a
	// previously recorded result for Sub is returned without simulating,
	// an in-progress snapshot is restored and continued, and the run
	// saves resumable snapshots on the cell's cadence and deadline
	// trigger. A nil Cell (or a System whose design or workloads cannot
	// serialize) runs plain.
	Cell *snapshot.Cell
	// Sub is the sub-run key within Cell.
	Sub string

	// Parallelism selects the execution mode: <= 1 steps each core's
	// private front inline on the caller's goroutine; > 1 runs each front
	// ahead on its own goroutine, feeding the same drive loop (see
	// front.go). Results and snapshots are byte-identical either way —
	// this is a scheduling knob, never a model parameter.
	Parallelism int

	// SnapshotEvery, when > 0, overrides the cell's auto-snapshot cadence
	// in drive-loop steps. Only meaningful with a Cell.
	SnapshotEvery uint64
}

// Run executes one simulation run described by spec:
//
//	Run(ctx, sys, RunSpec{Warmup: w, ROI: r})                     // fresh run
//	sys.RestoreState(b); Run(ctx, sys, RunSpec{})                 // resume a snapshot
//	Run(ctx, sys, RunSpec{Warmup: w, ROI: r, Cell: cell, Sub: s}) // sweep-cell protocol
//
// The drive loop polls ctx every cancelCheckPeriod steps and abandons the
// simulation with ctx.Err() when it is cancelled, which is how the
// experiment harness implements per-cell timeouts and Ctrl-C. A tracker
// on the context (mc.WithTracker) streams retired-instruction progress on
// every path. A failed or cancelled run returns zero Results and leaves
// the System spent: simulation state is not rewound, so a further Run
// returns ErrSpent until RestoreState installs coherent state. On a
// deadline stop the partial state has been persisted to the Cell and the
// error is snapshot.ErrStopped.
func Run(ctx context.Context, sys *System, spec RunSpec) (Results, error) {
	tracker := mc.TrackerFrom(ctx)
	if spec.Cell == nil || !sys.Snapshottable() {
		sys.SetProgress(tracker)
		if sys.started {
			return sys.resumeWith(ctx, spec.Parallelism)
		}
		return sys.runWith(ctx, spec.Warmup, spec.ROI, spec.Parallelism)
	}

	var cached Results
	if ok, err := spec.Cell.LookupResult(spec.Sub, &cached); err != nil {
		return Results{}, err
	} else if ok {
		return cached, nil
	}
	every := spec.Cell.Every()
	if spec.SnapshotEvery > 0 {
		every = spec.SnapshotEvery
	}
	sys.SetAutoSnapshot(&AutoSnapshot{
		Every:   every,
		Trigger: spec.Cell.Trigger(),
		Save:    func(state []byte) error { return spec.Cell.SaveSystem(spec.Sub, state) },
	})
	var res Results
	var err error
	if st := spec.Cell.SystemState(spec.Sub); st != nil {
		if rerr := sys.RestoreState(st); rerr != nil {
			return Results{}, fmt.Errorf("resume %q: %w", spec.Sub, rerr)
		}
		// Installed after the restore so the tracker baseline is the
		// resumed state: only instructions retired here are reported.
		sys.SetProgress(tracker)
		res, err = sys.resumeWith(ctx, spec.Parallelism)
	} else {
		sys.SetProgress(tracker)
		res, err = sys.runWith(ctx, spec.Warmup, spec.ROI, spec.Parallelism)
	}
	if err != nil {
		return Results{}, err
	}
	if err := spec.Cell.RecordResult(spec.Sub, res); err != nil {
		return Results{}, err
	}
	return res, nil
}
