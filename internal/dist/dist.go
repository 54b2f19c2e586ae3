// Package dist is the fault-tolerant distributed sweep fabric: a
// coordinator/worker layer that spreads a grid of independent simulation
// cells across workers connected over net/rpc (or in-process pipes),
// under time-bounded leases with heartbeats.
//
// The design goal is the same determinism contract the serial harness
// keeps: a cell's value is a pure function of its spec — never of which
// worker ran it, how many times it was attempted, or what failed along
// the way. The fabric therefore tolerates the full crash taxonomy
// without perturbing results:
//
//   - a worker that dies, hangs, or partitions mid-cell stops
//     heartbeating; its lease expires and the cell is offered again,
//     seeded with the worker's last uploaded MAYASNAP state blob so at
//     most one snapshot interval of simulation is lost;
//   - the coordinator runs its grid as one serial-harness sweep
//     (harness.RunCells) whose cell function is a remote attempt, so
//     retry and backoff (harness.Retry), the retry budget, checkpoint
//     resume and the FAILED rows are the serial run's own: a lost lease
//     is one transient failure, and a cell that exhausts the budget is
//     a structured FAILED row, never a hang or a panic;
//   - each attempt runs on its worker through the serial harness's
//     attempt path (harness.RunAttempt), so panics, deadlines and -fault
//     specs behave exactly as in a local sweep.
//
// A three-worker chaos run (kills, dropped RPCs, delayed heartbeats)
// byte-compares equal to the serial harness run; internal/dist's tests
// prove it.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/mc"
)

// GridExperiment is the harness experiment name grid cells run under;
// full checkpoint keys are GridExperiment + "|" + Cell.Key, so a
// checkpoint written by the serial path resumes the distributed one and
// vice versa.
const GridExperiment = "grid"

// Grid is the sweep specification the fabric decomposes: the cross
// product of designs, benchmarks, and seeds, each point simulated as a
// homogeneous Cores-wide mix at the given scale.
type Grid struct {
	Designs []experiments.Design
	Benches []string
	Seeds   []uint64
	Cores   int
	Warmup  uint64
	ROI     uint64
}

// Validate reports the first structural problem with the spec.
func (g Grid) Validate() error {
	switch {
	case len(g.Designs) == 0:
		return fmt.Errorf("dist: grid has no designs")
	case len(g.Benches) == 0:
		return fmt.Errorf("dist: grid has no benchmarks")
	case len(g.Seeds) == 0:
		return fmt.Errorf("dist: grid has no seeds")
	case g.Cores <= 0:
		return fmt.Errorf("dist: grid needs cores > 0 (got %d)", g.Cores)
	case g.Warmup == 0:
		return fmt.Errorf("dist: grid needs warmup > 0")
	case g.ROI == 0:
		return fmt.Errorf("dist: grid needs roi > 0")
	}
	return nil
}

// Cell is one unit of distributable work: a single grid point. The
// struct is self-contained (it crosses the RPC boundary by value) and
// Key embeds every field that affects the result.
type Cell struct {
	Key    string // harness cell key suffix (see experiments.GridCellKey)
	Design experiments.Design
	Bench  string
	Cores  int
	Warmup uint64
	ROI    uint64
	Seed   uint64
}

func (c Cell) scale() experiments.Scale {
	return experiments.Scale{WarmupInstr: c.Warmup, ROIInstr: c.ROI, Seed: c.Seed}
}

// Run computes the cell's value: the JSON-encoded simulation results.
// The encoding happens here, at the point of computation, so the bytes a
// worker ships to the coordinator are the same bytes the serial harness
// would have checkpointed.
func (c Cell) Run(ctx context.Context) (json.RawMessage, error) {
	res, err := experiments.RunGridCell(ctx, c.Design, c.Bench, c.Cores, c.scale())
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// Cells expands the grid into its deterministic cell list:
// design-major, then benchmark, then seed — the order both grid runners
// list their sweep's cells in. Reports sort by key, so no output
// depends on which cell runs first.
func (g Grid) Cells() []Cell {
	out := make([]Cell, 0, len(g.Designs)*len(g.Benches)*len(g.Seeds))
	for _, d := range g.Designs {
		for _, b := range g.Benches {
			for _, s := range g.Seeds {
				sc := experiments.Scale{WarmupInstr: g.Warmup, ROIInstr: g.ROI, Seed: s}
				out = append(out, Cell{
					Key:    experiments.GridCellKey(d, b, g.Cores, sc),
					Design: d,
					Bench:  b,
					Cores:  g.Cores,
					Warmup: g.Warmup,
					ROI:    g.ROI,
					Seed:   s,
				})
			}
		}
	}
	return out
}

// SeedList derives n sweep seeds from a base seed using the Monte Carlo
// engine's shard derivation (mc.ShardSeed), so a fleet sweep over n
// seeds and an mc shard sweep of the same width agree on the streams.
func SeedList(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = mc.ShardSeed(base, i, n)
	}
	return out
}

// Row is one cell's outcome in a Report.
type Row struct {
	Key   string
	Value json.RawMessage // nil when the cell failed
	Err   string          // non-empty when the cell failed
}

// Report is the fabric's result set: one row per cell, sorted by key so
// serial and distributed runs render identically regardless of worker
// scheduling.
type Report struct {
	Rows []Row
}

// Failed reports whether any row failed.
func (r Report) Failed() bool {
	for _, row := range r.Rows {
		if row.Err != "" {
			return true
		}
	}
	return false
}

// WriteTSV renders the report as key<TAB>status<TAB>payload lines. The
// payload of an OK row is its JSON value; of a FAILED row, the error.
// Attempt counts and worker placements are deliberately absent: they
// differ between serial and distributed runs, and the report is the
// byte-comparison surface of the determinism contract.
func (r Report) WriteTSV(w io.Writer) error {
	for _, row := range r.Rows {
		var err error
		if row.Err != "" {
			_, err = fmt.Fprintf(w, "%s\tFAILED\t%s\n", row.Key, row.Err)
		} else {
			_, err = fmt.Fprintf(w, "%s\tOK\t%s\n", row.Key, row.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// newReport assembles rows from parallel key/value/mask slices plus the
// runner's failures, sorted by key. A transient failure is one whose
// retries ran out, and its row says so.
func newReport(keys []string, vals []json.RawMessage, ok []bool, fails []*harness.RunError) Report {
	failBy := make(map[string]string, len(fails))
	for _, f := range fails {
		if f.Experiment != GridExperiment {
			continue
		}
		msg := f.Err.Error()
		if harness.IsTransient(f.Err) {
			msg = fmt.Sprintf("%s (retry budget exhausted after %d attempt(s))", msg, f.Attempts)
		}
		failBy[f.Cell] = msg
	}
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{Key: k}
		if ok[i] {
			rows[i].Value = vals[i]
		} else if msg, hit := failBy[k]; hit {
			rows[i].Err = msg
		} else {
			rows[i].Err = "not completed (run cancelled)"
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return Report{Rows: rows}
}

// RunSerial executes the grid through the plain harness on this process
// — the reference execution the distributed fabric must byte-match. The
// runner supplies worker-pool width, retry policy, checkpointing, and
// fault hooks exactly as mayasim sweeps do.
func RunSerial(ctx context.Context, r *harness.Runner, g Grid) (Report, error) {
	if err := g.Validate(); err != nil {
		return Report{}, err
	}
	cells := g.Cells()
	return runGrid(ctx, r, cells, func(ctx context.Context, i int) (json.RawMessage, error) {
		return cells[i].Run(ctx)
	})
}

// runGrid runs cells as one sweep on r, computing cell i with run, and
// reports every cell. It is the one grid runner: RunSerial passes
// Cell.Run, and the coordinator a remote attempt.
func runGrid(ctx context.Context, r *harness.Runner, cells []Cell, run func(ctx context.Context, i int) (json.RawMessage, error)) (Report, error) {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	vals, ok, err := harness.RunCells(ctx, r, GridExperiment, keys, run)
	return newReport(keys, vals, ok, r.Failures()), err
}
