package experiments

import (
	"context"
	"fmt"
	"strconv"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/harness"
	"mayacache/internal/metrics"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// Harness-routed sweeps: every figure/table of the evaluation expressed
// as a set of independent cells executed through harness.RunCells. Each
// cell key embeds the benchmark/configuration AND the scale (warmup, ROI,
// seed), so a checkpoint taken at one scale can never satisfy a lookup at
// another. The *Sweep functions return their rows plus a completeness
// mask: ok[i] is false when any cell feeding row i failed or was
// cancelled, and the drivers render such rows as FAILED while aggregates
// use only complete rows.

// scaleKey renders the scale portion of a cell key.
func scaleKey(sc Scale) string {
	return fmt.Sprintf("w=%d|roi=%d|seed=%d", sc.WarmupInstr, sc.ROIInstr, sc.Seed)
}

// runMixCtx simulates one workload assignment under one LLC, honoring
// ctx cancellation and returning trace/construction failures as errors.
// sub names this sub-run within its sweep cell ("mix|<design>",
// "alone|<bench>"); when the harness attached a snapshot.Cell to ctx the
// run goes through the checkpointing path of cachesim.Run, so completed
// sub-runs are served from the cell record, an interrupted one resumes
// mid-simulation, and deadline stops persist state before returning
// snapshot.ErrStopped.
func runMixCtx(ctx context.Context, sub string, benchNames []string, llc cachemodel.LLC, sc Scale) (cachesim.Results, error) {
	gens := make([]trace.Generator, len(benchNames))
	for i, b := range benchNames {
		p, err := trace.Lookup(b)
		if err != nil {
			return cachesim.Results{}, err
		}
		g, err := trace.NewGenerator(p, i, sc.Seed)
		if err != nil {
			return cachesim.Results{}, err
		}
		gens[i] = g
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(benchNames),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  dramFor(len(benchNames)),
		Seed:  sc.Seed,
	}, gens)
	return cachesim.Run(ctx, sys, cachesim.RunSpec{
		Warmup: sc.WarmupInstr,
		ROI:    sc.ROIInstr,
		Cell:   snapshot.CellFrom(ctx),
		Sub:    sub,
	})
}

// AloneIPCCtx returns the benchmark's single-core IPC on a private 2MB
// baseline LLC — the denominator of the weighted-speedup metric. Results
// are memoized per (bench, scale); failed computations are not.
func AloneIPCCtx(ctx context.Context, bench string, sc Scale) (float64, error) {
	k := aloneKey{bench, sc.WarmupInstr, sc.ROIInstr, sc.Seed}
	aloneMu.Lock()
	v, ok := aloneCache[k]
	aloneMu.Unlock()
	if ok {
		return v, nil
	}
	llc, err := NewLLCChecked(DesignBaseline, LLCOptions{Cores: 1, Seed: sc.Seed})
	if err != nil {
		return 0, err
	}
	res, err := runMixCtx(ctx, "alone|"+bench, []string{bench}, llc, sc)
	if err != nil {
		return 0, err
	}
	v = res.Cores[0].IPC
	aloneMu.Lock()
	aloneCache[k] = v
	aloneMu.Unlock()
	return v, nil
}

// RunMixDesignCtx simulates the benchmark assignment under the named
// design and computes the weighted speedup against single-core baseline
// IPCs.
func RunMixDesignCtx(ctx context.Context, mixName string, benchNames []string, d Design, sc Scale) (MixResult, error) {
	llc, err := NewLLCChecked(d, LLCOptions{Cores: len(benchNames), Seed: sc.Seed, FastHash: true})
	if err != nil {
		return MixResult{}, err
	}
	return RunMixLLCCtx(ctx, mixName, benchNames, d, llc, sc)
}

// RunMixLLCCtx is RunMixDesignCtx with a caller-supplied LLC instance,
// for configuration sweeps like Fig 4's reuse-way study.
func RunMixLLCCtx(ctx context.Context, mixName string, benchNames []string, d Design, llc cachemodel.LLC, sc Scale) (MixResult, error) {
	res, err := runMixCtx(ctx, "mix|"+llc.Name(), benchNames, llc, sc)
	if err != nil {
		return MixResult{}, err
	}
	ipcs := make([]float64, len(res.Cores))
	alone := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		ipcs[i] = c.IPC
		alone[i], err = AloneIPCCtx(ctx, benchNames[i], sc)
		if err != nil {
			return MixResult{}, err
		}
	}
	ws, err := metrics.WeightedSpeedup(ipcs, alone)
	if err != nil {
		return MixResult{}, fmt.Errorf("experiments: %w", err)
	}
	return MixResult{
		Mix: mixName, Design: d, WS: ws, MPKI: res.MPKI(),
		IPCs: ipcs, LLCStats: res.LLCStats,
	}, nil
}

// Fig1Sweep reproduces Figure 1: the fraction of LLC data fills that are
// never reused, per benchmark, single-core with a 2MB LLC. One cell per
// benchmark.
func Fig1Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig1Row, []bool, error) {
	benches := append(trace.SpecMemIntensive(), trace.GapMemIntensive()...)
	keys := make([]string, len(benches))
	for i, b := range benches {
		keys[i] = "bench=" + b + "|" + scaleKey(sc)
	}
	rows, ok, err := harness.RunCells(ctx, r, "fig1", keys, func(cctx context.Context, i int) (Fig1Row, error) {
		b := benches[i]
		baseLLC, err := NewLLCChecked(DesignBaseline, LLCOptions{Cores: 1, Seed: sc.Seed})
		if err != nil {
			return Fig1Row{}, err
		}
		base, err := runMixCtx(cctx, "mix|"+baseLLC.Name(), []string{b}, baseLLC, sc)
		if err != nil {
			return Fig1Row{}, err
		}
		mirLLC, err := NewLLCChecked(DesignMirage, LLCOptions{Cores: 1, Seed: sc.Seed, FastHash: true})
		if err != nil {
			return Fig1Row{}, err
		}
		mir, err := runMixCtx(cctx, "mix|"+mirLLC.Name(), []string{b}, mirLLC, sc)
		if err != nil {
			return Fig1Row{}, err
		}
		return Fig1Row{
			Bench:        b,
			Suite:        trace.MustLookup(b).Suite,
			DeadBaseline: base.LLCStats.DeadBlockFraction() * 100,
			DeadMirage:   mir.LLCStats.DeadBlockFraction() * 100,
		}, nil
	})
	// Identify failed rows so drivers can label them.
	for i := range rows {
		if !ok[i] {
			rows[i].Bench = benches[i]
			rows[i].Suite = trace.MustLookup(benches[i]).Suite
		}
	}
	return rows, ok, err
}

// Fig9Sweep reproduces Figure 9 (8-core homogeneous mixes, Maya and
// Mirage normalized to the non-secure baseline) plus the Table VII MPKI
// data: one cell per benchmark, each simulating the three designs.
func Fig9Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig9Row, []bool, error) {
	benches := append(trace.SpecMemIntensive(), trace.GapMemIntensive()...)
	keys := make([]string, len(benches))
	for i, b := range benches {
		keys[i] = "bench=" + b + "|" + scaleKey(sc)
	}
	rows, ok, err := harness.RunCells(ctx, r, "fig9", keys, func(cctx context.Context, i int) (Fig9Row, error) {
		b := benches[i]
		mix := homogeneous(b, 8)
		base, err := RunMixDesignCtx(cctx, b, mix, DesignBaseline, sc)
		if err != nil {
			return Fig9Row{}, err
		}
		mir, err := RunMixDesignCtx(cctx, b, mix, DesignMirage, sc)
		if err != nil {
			return Fig9Row{}, err
		}
		maya, err := RunMixDesignCtx(cctx, b, mix, DesignMaya, sc)
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{
			Bench:      b,
			Suite:      trace.MustLookup(b).Suite,
			NormMirage: mir.WS / base.WS,
			NormMaya:   maya.WS / base.WS,
			MPKIBase:   base.MPKI,
			MPKIMirage: mir.MPKI,
			MPKIMaya:   maya.MPKI,
		}, nil
	})
	for i := range rows {
		if !ok[i] {
			rows[i].Bench = benches[i]
			rows[i].Suite = trace.MustLookup(benches[i]).Suite
		}
	}
	return rows, ok, err
}

// Fig10Sweep reproduces Figure 10: the 21 heterogeneous mixes of Table
// VI, one cell per mix.
func Fig10Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig10Row, []bool, error) {
	mixes := trace.HeteroMixes()
	keys := make([]string, len(mixes))
	for i, m := range mixes {
		keys[i] = "mix=" + m.Name + "|" + scaleKey(sc)
	}
	rows, ok, err := harness.RunCells(ctx, r, "fig10", keys, func(cctx context.Context, i int) (Fig10Row, error) {
		m := mixes[i]
		base, err := RunMixDesignCtx(cctx, m.Name, m.Benchmarks, DesignBaseline, sc)
		if err != nil {
			return Fig10Row{}, err
		}
		mir, err := RunMixDesignCtx(cctx, m.Name, m.Benchmarks, DesignMirage, sc)
		if err != nil {
			return Fig10Row{}, err
		}
		maya, err := RunMixDesignCtx(cctx, m.Name, m.Benchmarks, DesignMaya, sc)
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			Mix: m.Name, Bin: m.Bin,
			NormMirage: mir.WS / base.WS,
			NormMaya:   maya.WS / base.WS,
			MPKIBase:   base.MPKI,
			MPKIMirage: mir.MPKI,
			MPKIMaya:   maya.MPKI,
		}, nil
	})
	for i := range rows {
		if !ok[i] {
			rows[i].Mix = mixes[i].Name
			rows[i].Bin = mixes[i].Bin
		}
	}
	return rows, ok, err
}

// Fig4Sweep reproduces Figure 4: Maya's performance as reuse ways per
// skew vary over {1, 3, 5, 7}, on SPEC homogeneous mixes, normalized to
// baseline, with the data store held at its default size as in the
// paper. It runs in two phases: baseline weighted speedups (one cell per
// benchmark), then raw Maya weighted speedups (one cell per reuse-way x
// benchmark). Normalization happens at aggregation, so a failed baseline
// only degrades the rows that need it. ok[i] is true when every cell
// feeding row i completed.
func Fig4Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Fig4Row, []bool, error) {
	benches := trace.SpecMemIntensive()
	ways := []int{1, 3, 5, 7}

	baseKeys := make([]string, len(benches))
	for j, b := range benches {
		baseKeys[j] = "bench=" + b + "|" + scaleKey(sc)
	}
	baseWS, baseOK, err := harness.RunCells(ctx, r, "fig4-base", baseKeys, func(cctx context.Context, j int) (float64, error) {
		res, rerr := RunMixDesignCtx(cctx, benches[j], homogeneous(benches[j], 8), DesignBaseline, sc)
		if rerr != nil {
			return 0, rerr
		}
		return res.WS, nil
	})
	if err != nil {
		return nil, nil, err
	}

	keys := make([]string, 0, len(ways)*len(benches))
	for _, w := range ways {
		for _, b := range benches {
			keys = append(keys, fmt.Sprintf("rw=%d|bench=%s|%s", w, b, scaleKey(sc)))
		}
	}
	raw, rawOK, err := harness.RunCells(ctx, r, "fig4", keys, func(cctx context.Context, k int) (float64, error) {
		w, b := ways[k/len(benches)], benches[k%len(benches)]
		llc, rerr := NewLLCChecked(DesignMaya, LLCOptions{Cores: 8, Seed: sc.Seed, FastHash: true, ReuseWays: w})
		if rerr != nil {
			return 0, rerr
		}
		res, rerr := RunMixLLCCtx(cctx, b, homogeneous(b, 8), DesignMaya, llc, sc)
		if rerr != nil {
			return 0, rerr
		}
		return res.WS, nil
	})
	if err != nil {
		return nil, nil, err
	}

	rows := make([]Fig4Row, len(ways))
	ok := make([]bool, len(ways))
	for i, w := range ways {
		var norms []float64
		complete := true
		for j := range benches {
			k := i*len(benches) + j
			if baseOK[j] && rawOK[k] && baseWS[j] > 0 {
				norms = append(norms, raw[k]/baseWS[j])
			} else {
				complete = false
			}
		}
		gm := 0.0
		if len(norms) > 0 {
			gm, _ = metrics.GeoMean(norms)
		}
		rows[i] = Fig4Row{ReuseWays: w, NormWS: gm}
		ok[i] = complete
	}
	return rows, ok, nil
}

// Table11Sweep reproduces Table XI: secure partitioning techniques on
// SPEC homogeneous mixes at 8 cores, one cell per (technique, benchmark)
// normalized weighted speedup, aggregated per technique. Storage
// overheads are the published metadata costs (mask registers / color
// tables), which are not simulated.
func Table11Sweep(ctx context.Context, r *harness.Runner, sc Scale) ([]Table11Row, []bool, error) {
	benches := trace.SpecMemIntensive()
	kinds := []partitionSpec{
		{"Page coloring", "set", 0.5},
		{"DAWG", "way", 0.5},
		{"BCE", "flex", 2.0},
	}
	keys := make([]string, 0, len(kinds)*len(benches))
	for _, k := range kinds {
		for _, b := range benches {
			keys = append(keys, fmt.Sprintf("tech=%s|bench=%s|%s", k.kind, b, scaleKey(sc)))
		}
	}
	norms, normOK, err := harness.RunCells(ctx, r, "table11", keys, func(cctx context.Context, c int) (float64, error) {
		k, b := kinds[c/len(benches)], benches[c%len(benches)]
		mix := homogeneous(b, 8)
		base, rerr := RunMixDesignCtx(cctx, b, mix, DesignBaseline, sc)
		if rerr != nil {
			return 0, rerr
		}
		part, rerr := RunMixLLCCtx(cctx, b, mix, DesignBaseline, newPartitionLLC(k.kind, 8, sc.Seed), sc)
		if rerr != nil {
			return 0, rerr
		}
		return part.WS / base.WS, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Table11Row, len(kinds))
	ok := make([]bool, len(kinds))
	for i, k := range kinds {
		var vals []float64
		complete := true
		for j := range benches {
			if normOK[i*len(benches)+j] {
				vals = append(vals, norms[i*len(benches)+j])
			} else {
				complete = false
			}
		}
		gm := 1.0
		if len(vals) > 0 {
			gm, _ = metrics.GeoMean(vals)
		}
		rows[i] = Table11Row{
			Technique:   k.name,
			PerfDelta:   (gm - 1) * 100,
			StorageOver: k.storagePct,
		}
		ok[i] = complete
	}
	return rows, ok, nil
}

// FittingSweep measures Maya on the LLC-fitting benchmarks (Section V-B
// reports a 0.63% average loss), one cell per benchmark.
func FittingSweep(ctx context.Context, r *harness.Runner, sc Scale) ([]SensitivityRow, []bool, error) {
	benches := trace.LLCFitting()
	keys := make([]string, len(benches))
	for i, b := range benches {
		keys[i] = "bench=" + b + "|" + scaleKey(sc)
	}
	rows, ok, err := harness.RunCells(ctx, r, "fitting", keys, func(cctx context.Context, i int) (SensitivityRow, error) {
		mix := homogeneous(benches[i], 8)
		base, err := RunMixDesignCtx(cctx, benches[i], mix, DesignBaseline, sc)
		if err != nil {
			return SensitivityRow{}, err
		}
		maya, err := RunMixDesignCtx(cctx, benches[i], mix, DesignMaya, sc)
		if err != nil {
			return SensitivityRow{}, err
		}
		return SensitivityRow{Label: benches[i], NormMaya: maya.WS / base.WS}, nil
	})
	for i := range rows {
		if !ok[i] {
			rows[i].Label = benches[i]
		}
	}
	return rows, ok, err
}

// CoreCountSweep runs a representative mix at each core count (8/16/32
// when coreCounts is empty), normalizing Maya to the like-for-like
// baseline; one cell per core count.
func CoreCountSweep(ctx context.Context, r *harness.Runner, sc Scale, coreCounts []int) ([]SensitivityRow, []bool, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{8, 16, 32}
	}
	pool := append(trace.SpecMemIntensive(), trace.GapMemIntensive()...)
	keys := make([]string, len(coreCounts))
	for i, n := range coreCounts {
		keys[i] = fmt.Sprintf("cores=%d|%s", n, scaleKey(sc))
	}
	rows, ok, err := harness.RunCells(ctx, r, "cores", keys, func(cctx context.Context, i int) (SensitivityRow, error) {
		n := coreCounts[i]
		mix := make([]string, n)
		for j := range mix {
			mix[j] = pool[j%len(pool)]
		}
		base, err := RunMixDesignCtx(cctx, "cores", mix, DesignBaseline, sc)
		if err != nil {
			return SensitivityRow{}, err
		}
		maya, err := RunMixDesignCtx(cctx, "cores", mix, DesignMaya, sc)
		if err != nil {
			return SensitivityRow{}, err
		}
		return SensitivityRow{Label: fmtCores(n), NormMaya: maya.WS / base.WS}, nil
	})
	for i := range rows {
		if !ok[i] {
			rows[i].Label = fmtCores(coreCounts[i])
		}
	}
	return rows, ok, err
}

// LLCSizeSweep sweeps the Maya data-store size (Section V-B evaluates 6MB
// to 96MB data stores; the default factors multiply the default 12MB),
// one cell per (size factor, benchmark), aggregated per factor. Both
// designs scale by set count with the same factor, so a 0.5x Maya (6MB)
// compares against a 0.5x baseline (8MB) and Maya keeps its way
// structure, and thus its security argument, as in the paper.
func LLCSizeSweep(ctx context.Context, r *harness.Runner, sc Scale, scales []float64) ([]SensitivityRow, []bool, error) {
	if len(scales) == 0 {
		scales = []float64{0.5, 1.0, 2.0, 4.0}
	}
	benches := trace.SpecMemIntensive()
	keys := make([]string, 0, len(scales)*len(benches))
	for _, f := range scales {
		for _, b := range benches {
			keys = append(keys, fmt.Sprintf("f=%g|bench=%s|%s", f, b, scaleKey(sc)))
		}
	}
	norms, normOK, err := harness.RunCells(ctx, r, "llcsize", keys, func(cctx context.Context, c int) (float64, error) {
		f, b := scales[c/len(benches)], benches[c%len(benches)]
		mix := homogeneous(b, 8)
		scaledSets := nextPow2(int(float64(setsPerCore*8)*f + 0.5))
		base, rerr := RunMixLLCCtx(cctx, b, mix, DesignBaseline, newScaledBaseline(scaledSets, sc.Seed), sc)
		if rerr != nil {
			return 0, rerr
		}
		res, rerr := RunMixLLCCtx(cctx, b, mix, DesignMaya, newScaledMaya(scaledSets, sc.Seed), sc)
		if rerr != nil {
			return 0, rerr
		}
		return res.WS / base.WS, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]SensitivityRow, len(scales))
	ok := make([]bool, len(scales))
	for i, f := range scales {
		var vals []float64
		complete := true
		for j := range benches {
			if normOK[i*len(benches)+j] {
				vals = append(vals, norms[i*len(benches)+j])
			} else {
				complete = false
			}
		}
		gm := 0.0
		if len(vals) > 0 {
			gm, _ = metrics.GeoMean(vals)
		}
		rows[i] = SensitivityRow{
			Label:    strconv.Itoa(int(12*f+0.5)) + "MB data store",
			NormMaya: gm,
		}
		ok[i] = complete
	}
	return rows, ok, nil
}
