package experiments

import (
	"context"
	"strconv"

	"mayacache/internal/cachemodel"
	"mayacache/internal/harness"
	"mayacache/internal/metrics"
	"mayacache/internal/trace"
)

// Harness-routed sweeps: every figure and table of the evaluation is the
// list of simulations it needs plus a pure aggregation over their
// Results. runSims runs each distinct simulation as one harness cell
// keyed by Sim.Key, so on a runner with a checkpoint a simulation one
// figure ran serves every later figure that needs it, and a resumed sweep
// recomputes only the simulations that did not complete. The *Sweep
// functions return their rows plus a completeness mask: ok[i] is false
// when any simulation feeding row i failed or was cancelled, and the
// CLIs render such rows as FAILED while aggregates use only complete
// rows.

// memIntensive is the SPEC and GAP memory-intensive benchmarks, the x
// axis of Figs 1 and 9.
func memIntensive() []string {
	return append(trace.SpecMemIntensive(), trace.GapMemIntensive()...)
}

// suiteOf returns a benchmark's suite. Its callers name benchmarks from
// trace's own lists, every one of which is registered (trace's
// TestSuiteLists), so the lookup cannot fail.
func suiteOf(bench string) string {
	p, _ := trace.Lookup(bench)
	return p.Suite
}

// A pair is a design's simulation and the like-for-like baseline
// simulation it is normalized against.
type pair struct{ x, base Sim }

// pairSims lists the simulations of rows of pairs, each pair's baseline
// first.
func pairSims(rows ...[]pair) []Sim {
	var sims []Sim
	for _, row := range rows {
		for _, p := range row {
			sims = append(sims, p.base, p.x)
		}
	}
	return sims
}

// gmNorm returns the geometric mean of the normalized weighted speedups
// of the pairs that completed, and whether all of them did.
func (d done) gmNorm(pairs []pair) (float64, bool) {
	var norms []float64
	for _, p := range pairs {
		if n, ok := d.norm(p.x, p.base); ok {
			norms = append(norms, n)
		}
	}
	gm := 0.0
	if len(norms) > 0 {
		gm, _ = metrics.GeoMean(norms)
	}
	return gm, len(norms) == len(pairs)
}

// trio is one mix on the baseline, Mirage and Maya: the bars of Figs 9
// and 10.
func trio(mix []string, sc Scale) []Sim {
	return []Sim{
		{Design: DesignBaseline, Benches: mix, Scale: sc},
		{Design: DesignMirage, Benches: mix, Scale: sc},
		{Design: DesignMaya, Benches: mix, Scale: sc},
	}
}

// compare reads one mix's Fig 9/10 data: Mirage's and Maya's weighted
// speedups normalized to the baseline's, and each design's LLC MPKI in
// trio order.
func (d done) compare(mix []string, sc Scale) (mirage, maya float64, mpki [3]float64, ok bool) {
	t := trio(mix, sc)
	mirage, okMirage := d.norm(t[1], t[0])
	maya, okMaya := d.norm(t[2], t[0])
	for i, s := range t {
		mpki[i] = d[s.Key()].MPKI()
	}
	return mirage, maya, mpki, okMirage && okMaya
}

// fig1Sims lists Figure 1's simulations: each benchmark alone on a
// one-core baseline and on a one-core Mirage.
func fig1Sims(sc Scale) []Sim {
	var sims []Sim
	for _, b := range memIntensive() {
		sims = append(sims, aloneSim(b, sc), homSim(DesignMirage, b, 1, sc))
	}
	return sims
}

// Fig1Sweep reproduces Figure 1: the fraction of LLC data fills that are
// never reused, per benchmark, single-core with a 2MB LLC.
func Fig1Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig1Row, []bool, error) {
	d, err := runSims(ctx, r, fig1Sims(sc))
	benches := memIntensive()
	rows := make([]Fig1Row, len(benches))
	ok := make([]bool, len(benches))
	for i, b := range benches {
		rows[i] = Fig1Row{Bench: b, Suite: suiteOf(b)}
		base, okBase := d[aloneSim(b, sc).Key()]
		mir, okMirage := d[homSim(DesignMirage, b, 1, sc).Key()]
		if ok[i] = okBase && okMirage; ok[i] {
			rows[i].DeadBaseline = base.LLCStats.DeadBlockFraction() * 100
			rows[i].DeadMirage = mir.LLCStats.DeadBlockFraction() * 100
		}
	}
	return rows, ok, err
}

// fig9Sims lists Figure 9's simulations: each benchmark's 8-core
// homogeneous mix on the baseline, Mirage and Maya.
func fig9Sims(sc Scale) []Sim {
	var sims []Sim
	for _, b := range memIntensive() {
		sims = append(sims, trio(homogeneous(b, 8), sc)...)
	}
	return sims
}

// Fig9Sweep reproduces Figure 9 (8-core homogeneous mixes, Maya and
// Mirage normalized to the non-secure baseline) plus the Table VII MPKI
// data.
func Fig9Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig9Row, []bool, error) {
	d, err := runSims(ctx, r, fig9Sims(sc))
	benches := memIntensive()
	rows := make([]Fig9Row, len(benches))
	ok := make([]bool, len(benches))
	for i, b := range benches {
		rows[i] = Fig9Row{Bench: b, Suite: suiteOf(b)}
		mir, maya, mpki, complete := d.compare(homogeneous(b, 8), sc)
		if ok[i] = complete; complete {
			rows[i].NormMirage, rows[i].NormMaya = mir, maya
			rows[i].MPKIBase, rows[i].MPKIMirage, rows[i].MPKIMaya = mpki[0], mpki[1], mpki[2]
		}
	}
	return rows, ok, err
}

// fig10Sims lists Figure 10's simulations: each heterogeneous mix of
// Table VI on the baseline, Mirage and Maya.
func fig10Sims(sc Scale) []Sim {
	var sims []Sim
	for _, m := range trace.HeteroMixes() {
		sims = append(sims, trio(m.Benchmarks, sc)...)
	}
	return sims
}

// Fig10Sweep reproduces Figure 10: the 21 heterogeneous mixes of Table
// VI.
func Fig10Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig10Row, []bool, error) {
	d, err := runSims(ctx, r, fig10Sims(sc))
	mixes := trace.HeteroMixes()
	rows := make([]Fig10Row, len(mixes))
	ok := make([]bool, len(mixes))
	for i, m := range mixes {
		rows[i] = Fig10Row{Mix: m.Name, Bin: m.Bin}
		mir, maya, mpki, complete := d.compare(m.Benchmarks, sc)
		if ok[i] = complete; complete {
			rows[i].NormMirage, rows[i].NormMaya = mir, maya
			rows[i].MPKIBase, rows[i].MPKIMirage, rows[i].MPKIMaya = mpki[0], mpki[1], mpki[2]
		}
	}
	return rows, ok, err
}

// fig4Ways are Figure 4's reuse ways per skew.
var fig4Ways = []int{1, 3, 5, 7}

// fig4Maya is bench's 8-core homogeneous mix on Maya with w reuse ways
// per skew and the data store at its default size.
func fig4Maya(w int, bench string, sc Scale) Sim {
	s := homSim(DesignMaya, bench, 8, sc)
	s.ReuseWays = w
	return s
}

// fig4Sims lists Figure 4's simulations: each SPEC benchmark's 8-core
// homogeneous mix on the baseline, then on Maya at each reuse-way count.
func fig4Sims(sc Scale) []Sim {
	benches := trace.SpecMemIntensive()
	var sims []Sim
	for _, b := range benches {
		sims = append(sims, homSim(DesignBaseline, b, 8, sc))
	}
	for _, w := range fig4Ways {
		for _, b := range benches {
			sims = append(sims, fig4Maya(w, b, sc))
		}
	}
	return sims
}

// Fig4Sweep reproduces Figure 4: Maya's performance as reuse ways per
// skew vary over {1, 3, 5, 7}, on SPEC homogeneous mixes, normalized to
// baseline, with the data store held at its default size as in the
// paper. At 3 reuse ways the Maya runs are Figure 9's.
func Fig4Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig4Row, []bool, error) {
	d, err := runSims(ctx, r, fig4Sims(sc))
	rows := make([]Fig4Row, len(fig4Ways))
	ok := make([]bool, len(fig4Ways))
	for i, w := range fig4Ways {
		var pairs []pair
		for _, b := range trace.SpecMemIntensive() {
			pairs = append(pairs, pair{fig4Maya(w, b, sc), homSim(DesignBaseline, b, 8, sc)})
		}
		rows[i].ReuseWays = w
		rows[i].NormWS, ok[i] = d.gmNorm(pairs)
	}
	return rows, ok, err
}

// table11Techniques are Table XI's partitioning techniques. Storage
// overheads are the published metadata costs (mask registers / color
// tables), which are not simulated.
var table11Techniques = []partitionSpec{
	{"Page coloring", "set", 0.5},
	{"DAWG", "way", 0.5},
	{"BCE", "flex", 2.0},
}

// table11Pairs lists, per technique, each SPEC benchmark's 8-core
// homogeneous mix on the partitioned baseline against the shared one.
func table11Pairs(sc Scale) [][]pair {
	rows := make([][]pair, len(table11Techniques))
	for i, k := range table11Techniques {
		for _, b := range trace.SpecMemIntensive() {
			base := homSim(DesignBaseline, b, 8, sc)
			part := base
			part.Partition = k.kind
			rows[i] = append(rows[i], pair{part, base})
		}
	}
	return rows
}

// Table11Sweep reproduces Table XI: secure partitioning techniques on
// SPEC homogeneous mixes at 8 cores, the normalized weighted speedup
// aggregated per technique.
func Table11Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Table11Row, []bool, error) {
	pairs := table11Pairs(sc)
	d, err := runSims(ctx, r, pairSims(pairs...))
	rows := make([]Table11Row, len(table11Techniques))
	ok := make([]bool, len(table11Techniques))
	for i, k := range table11Techniques {
		var gm float64
		gm, ok[i] = d.gmNorm(pairs[i])
		rows[i] = Table11Row{Technique: k.name, PerfDelta: (gm - 1) * 100, StorageOver: k.storagePct}
	}
	return rows, ok, err
}

// fittingPairs lists each LLC-fitting benchmark's 8-core homogeneous mix
// on Maya against the baseline.
func fittingPairs(sc Scale) []pair {
	var pairs []pair
	for _, b := range trace.LLCFitting() {
		pairs = append(pairs, pair{homSim(DesignMaya, b, 8, sc), homSim(DesignBaseline, b, 8, sc)})
	}
	return pairs
}

// FittingSweep measures Maya on the LLC-fitting benchmarks (Section V-B
// reports a 0.63% average loss).
func FittingSweep(ctx context.Context, r *harness.Runner, sc Scale) ([]SensitivityRow, []bool, error) {
	pairs := fittingPairs(sc)
	d, err := runSims(ctx, r, pairSims(pairs))
	rows := make([]SensitivityRow, len(pairs))
	ok := make([]bool, len(pairs))
	for i, p := range pairs {
		rows[i].Label = p.x.Benches[0]
		rows[i].NormMaya, ok[i] = d.norm(p.x, p.base)
	}
	return rows, ok, err
}

// corePairs lists, per core count, a representative mix (the
// memory-intensive benchmarks in turn) on Maya against the like-for-like
// baseline.
func corePairs(sc Scale, coreCounts []int) []pair {
	pool := memIntensive()
	var pairs []pair
	for _, n := range coreCounts {
		mix := make([]string, n)
		for j := range mix {
			mix[j] = pool[j%len(pool)]
		}
		pairs = append(pairs, pair{
			Sim{Design: DesignMaya, Benches: mix, Scale: sc},
			Sim{Design: DesignBaseline, Benches: mix, Scale: sc},
		})
	}
	return pairs
}

// defaultCoreCounts are Section V-B's system sizes.
var defaultCoreCounts = []int{8, 16, 32}

// CoreCountSweep runs a representative mix at each core count
// (defaultCoreCounts when coreCounts is empty), normalizing Maya to the
// like-for-like baseline.
func CoreCountSweep(ctx context.Context, r *harness.Runner, sc Scale, coreCounts []int) ([]SensitivityRow, []bool, error) {
	if len(coreCounts) == 0 {
		coreCounts = defaultCoreCounts
	}
	pairs := corePairs(sc, coreCounts)
	d, err := runSims(ctx, r, pairSims(pairs))
	rows := make([]SensitivityRow, len(pairs))
	ok := make([]bool, len(pairs))
	for i, p := range pairs {
		rows[i].Label = fmtCores(coreCounts[i])
		rows[i].NormMaya, ok[i] = d.norm(p.x, p.base)
	}
	return rows, ok, err
}

// llcSizePairs lists, per size factor, each SPEC benchmark's 8-core
// homogeneous mix on Maya against the baseline, both with the per-core
// set count scaled by the factor. At 1.0 these are Figure 9's runs.
func llcSizePairs(sc Scale, factors []float64) [][]pair {
	rows := make([][]pair, len(factors))
	for i, f := range factors {
		perCore := nextPow2(int(float64(cachemodel.DefaultSetsPerCore*8)*f+0.5)) / 8
		for _, b := range trace.SpecMemIntensive() {
			base := homSim(DesignBaseline, b, 8, sc)
			base.SetsPerCore = perCore
			maya := homSim(DesignMaya, b, 8, sc)
			maya.SetsPerCore = perCore
			rows[i] = append(rows[i], pair{maya, base})
		}
	}
	return rows
}

// defaultSizeFactors multiply the default 12MB Maya data store.
var defaultSizeFactors = []float64{0.5, 1.0, 2.0, 4.0}

// LLCSizeSweep sweeps the Maya data-store size (Section V-B evaluates 6MB
// to 96MB data stores; defaultSizeFactors when scales is empty),
// aggregated per factor. Both designs scale by set count with the same
// factor, so a 0.5x Maya (6MB) compares against a 0.5x baseline (8MB) and
// Maya keeps its way structure, and thus its security argument, as in
// the paper.
func LLCSizeSweep(ctx context.Context, r *harness.Runner, sc Scale, scales []float64) ([]SensitivityRow, []bool, error) {
	if len(scales) == 0 {
		scales = defaultSizeFactors
	}
	pairs := llcSizePairs(sc, scales)
	d, err := runSims(ctx, r, pairSims(pairs...))
	rows := make([]SensitivityRow, len(scales))
	ok := make([]bool, len(scales))
	for i, f := range scales {
		rows[i].Label = strconv.Itoa(int(12*f+0.5)) + "MB data store"
		rows[i].NormMaya, ok[i] = d.gmNorm(pairs[i])
	}
	return rows, ok, err
}

// table10Pairs lists, per design, each SPEC benchmark's 8-core
// homogeneous mix on the design against the baseline.
func table10Pairs(sc Scale, designs []Design) [][]pair {
	rows := make([][]pair, len(designs))
	for i, dn := range designs {
		for _, b := range trace.SpecMemIntensive() {
			rows[i] = append(rows[i], pair{homSim(dn, b, 8, sc), homSim(DesignBaseline, b, 8, sc)})
		}
	}
	return rows
}

// Table10Sweep measures Table X's performance column: each design's
// weighted speedup on the SPEC homogeneous 8-core mixes normalized to
// the baseline, as a geometric mean over the benchmarks.
func Table10Sweep(ctx context.Context, r *harness.Runner, sc Scale, designs []Design) ([]float64, []bool, error) {
	pairs := table10Pairs(sc, designs)
	d, err := runSims(ctx, r, pairSims(pairs...))
	gms := make([]float64, len(designs))
	ok := make([]bool, len(designs))
	for i := range designs {
		gms[i], ok[i] = d.gmNorm(pairs[i])
	}
	return gms, ok, err
}
