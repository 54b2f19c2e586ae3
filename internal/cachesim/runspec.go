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

	// Cell, when non-nil, runs under the harness-cell snapshot protocol:
	// the cell's in-progress snapshot, if any, is restored and continued,
	// and the run saves resumable snapshots on the cell's cadence and
	// deadline trigger. A nil Cell (or a System whose design or workloads
	// cannot serialize) runs plain.
	Cell *snapshot.Cell

	// Parallelism selects the execution mode: <= 1 steps each core's
	// private front inline on the caller's goroutine; > 1 runs each front
	// ahead on its own goroutine, feeding the same drive loop (see
	// front.go). Results and snapshots are byte-identical either way —
	// this is a scheduling knob, never a model parameter.
	Parallelism int
}

// Run executes one simulation run described by spec:
//
//	Run(ctx, sys, RunSpec{Warmup: w, ROI: r})             // fresh run
//	sys.RestoreState(b); Run(ctx, sys, RunSpec{})         // resume a snapshot
//	Run(ctx, sys, RunSpec{Warmup: w, ROI: r, Cell: cell}) // harness-cell protocol
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
//
// A Cell writes each save behind the drive loop (see snapshot.Cell).
// Run joins the last write before it returns, on every path, panics
// included, so once it returns the cell file holds the last save or the
// run has failed: a failed write is the run's error in place of success
// or ErrStopped. A run that failed or was cancelled for another reason
// keeps its own error; its file still holds an earlier whole save.
func Run(ctx context.Context, sys *System, spec RunSpec) (res Results, err error) {
	tracker := mc.TrackerFrom(ctx)
	if spec.Cell == nil || !sys.Snapshottable() {
		sys.SetProgress(tracker)
		if sys.started {
			return sys.resumeWith(ctx, spec.Parallelism)
		}
		return sys.runWith(ctx, spec.Warmup, spec.ROI, spec.Parallelism)
	}

	defer func() {
		if werr := spec.Cell.Wait(); werr != nil && (err == nil || errors.Is(err, snapshot.ErrStopped)) {
			res, err = Results{}, werr
			sys.spent = true
		}
	}()
	sys.SetAutoSnapshot(&AutoSnapshot{
		Every:   spec.Cell.Every(),
		Trigger: spec.Cell.Trigger(),
		Save:    spec.Cell.SaveSystem,
	})
	if st := spec.Cell.SystemState(); st != nil {
		if err := sys.RestoreState(st); err != nil {
			return Results{}, fmt.Errorf("resume cell %q: %w", spec.Cell.Key(), err)
		}
		// Installed after the restore so the tracker baseline is the
		// resumed state: only instructions retired here are reported.
		sys.SetProgress(tracker)
		return sys.resumeWith(ctx, spec.Parallelism)
	}
	sys.SetProgress(tracker)
	return sys.runWith(ctx, spec.Warmup, spec.ROI, spec.Parallelism)
}
