package experiments

import (
	"context"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
)

// The grid cell is the unit of work the distributed fleet schedules and
// the session service runs: one homogeneous-mix Sim on a default
// registry design. It is the same Sim the sweeps run, so a grid cell
// computed remotely is byte-identical to the same simulation computed by
// the serial harness, and an attached snapshot.Cell (via
// snapshot.WithCell on ctx) gives it mid-simulation save/resume for
// free.

// GridCellKey names one grid cell: its Sim's key. Keys embed every input
// that affects the result, so a checkpoint or snapshot written for one
// configuration is inapplicable — not corrupting — at another.
func GridCellKey(d Design, bench string, cores int, sc Scale) string {
	return homSim(d, bench, cores, sc).Key()
}

// RunGridCell simulates one grid cell. Results are a pure function of
// the arguments: nothing about which process, machine, or attempt runs
// the cell can leak into them. Unknown designs and unbuildable
// configurations, a core count below one included, return errors
// wrapping cachemodel.ErrBadConfig (no simulation runs); unknown
// benchmarks fail trace lookup.
func RunGridCell(ctx context.Context, d Design, bench string, cores int, sc Scale) (cachesim.Results, error) {
	if cores <= 0 {
		return cachesim.Results{}, cachemodel.BadConfigf("experiments: grid cell needs cores > 0 (got %d)", cores)
	}
	return homSim(d, bench, cores, sc).Run(ctx)
}
