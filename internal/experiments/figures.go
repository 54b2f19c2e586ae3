package experiments

import (
	"sort"
	"strconv"

	"mayacache/internal/metrics"
	"mayacache/internal/trace"
)

// ---------------------------------------------------------------- Fig 1

// Fig1Row reports the dead-block percentage of one benchmark on a
// single-core 2MB LLC, for the baseline and Mirage designs.
type Fig1Row struct {
	Bench        string
	Suite        string
	DeadBaseline float64 // percent
	DeadMirage   float64 // percent
}

// Fig1Average returns the mean dead-block percentage across rows.
func Fig1Average(rows []Fig1Row) (baseline, mirage float64) {
	bs := make([]float64, len(rows))
	ms := make([]float64, len(rows))
	for i, r := range rows {
		bs[i], ms[i] = r.DeadBaseline, r.DeadMirage
	}
	return metrics.Mean(bs), metrics.Mean(ms)
}

// ---------------------------------------------------------------- Fig 9

// Fig9Row is one homogeneous mix's normalized performance.
type Fig9Row struct {
	Bench      string
	Suite      string
	NormMirage float64 // weighted speedup vs baseline
	NormMaya   float64
	MPKIBase   float64
	MPKIMirage float64
	MPKIMaya   float64
}

// Fig9Summary returns per-suite geometric means of the normalized
// performance columns.
type Fig9Summary struct {
	Suite      string
	NormMirage float64
	NormMaya   float64
}

// SummarizeFig9 aggregates rows by suite ("SPEC", "GAP", "ALL").
func SummarizeFig9(rows []Fig9Row) []Fig9Summary {
	groups := map[string][][2]float64{}
	for _, r := range rows {
		groups[r.Suite] = append(groups[r.Suite], [2]float64{r.NormMirage, r.NormMaya})
		groups["ALL"] = append(groups["ALL"], [2]float64{r.NormMirage, r.NormMaya})
	}
	var out []Fig9Summary
	for _, suite := range []string{"SPEC", "GAP", "ALL"} {
		vals := groups[suite]
		if len(vals) == 0 {
			continue
		}
		mir := make([]float64, len(vals))
		may := make([]float64, len(vals))
		for i, v := range vals {
			mir[i], may[i] = v[0], v[1]
		}
		gm1, _ := metrics.GeoMean(mir)
		gm2, _ := metrics.GeoMean(may)
		out = append(out, Fig9Summary{Suite: suite, NormMirage: gm1, NormMaya: gm2})
	}
	return out
}

// ---------------------------------------------------------------- Fig 10

// Fig10Row is one heterogeneous mix's normalized performance.
type Fig10Row struct {
	Mix        string
	Bin        trace.MixBin
	NormMirage float64
	NormMaya   float64
	MPKIBase   float64
	MPKIMirage float64
	MPKIMaya   float64
}

// ---------------------------------------------------------------- Table VII

// Table7Row is one workload class's average LLC MPKI per design.
type Table7Row struct {
	Class                  string
	Baseline, Mirage, Maya float64
}

// Table7 derives Table VII from Fig 9 and Fig 10 results.
func Table7(fig9 []Fig9Row, fig10 []Fig10Row) []Table7Row {
	var rows []Table7Row
	// Homogeneous average.
	var b, m, y []float64
	for _, r := range fig9 {
		b = append(b, r.MPKIBase)
		m = append(m, r.MPKIMirage)
		y = append(y, r.MPKIMaya)
	}
	rows = append(rows, Table7Row{"SPEC and GAP-RATE", metrics.Mean(b), metrics.Mean(m), metrics.Mean(y)})
	for _, bin := range []trace.MixBin{trace.BinLow, trace.BinMedium, trace.BinHigh} {
		var b, m, y []float64
		for _, r := range fig10 {
			if r.Bin != bin {
				continue
			}
			b = append(b, r.MPKIBase)
			m = append(m, r.MPKIMirage)
			y = append(y, r.MPKIMaya)
		}
		rows = append(rows, Table7Row{"HETERO " + string(bin), metrics.Mean(b), metrics.Mean(m), metrics.Mean(y)})
	}
	return rows
}

// ---------------------------------------------------------------- Fig 4

// Fig4Row reports normalized performance for one reuse-way configuration.
type Fig4Row struct {
	ReuseWays int
	NormWS    float64 // geometric mean over SPEC homogeneous mixes
}

// ---------------------------------------------------------------- Table XI

// Table11Row is one partitioning technique's overheads.
type Table11Row struct {
	Technique   string
	PerfDelta   float64 // percent vs baseline (negative = slowdown)
	StorageOver float64 // percent extra storage (from the paper's metadata accounting)
}

type partitionSpec struct {
	name       string
	kind       string
	storagePct float64
}

// ---------------------------------------------------------------- sensitivity

// SensitivityRow is one point of the LLC-size / core-count sweeps.
type SensitivityRow struct {
	Label    string
	NormMaya float64
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func fmtCores(n int) string {
	return strconv.Itoa(n) + " cores"
}

// SortFig9 orders rows SPEC-first then by name, matching the paper's
// axis. ok is the rows' completeness mask and moves with them.
func SortFig9(rows []Fig9Row, ok []bool) {
	sort.Sort(fig9Order{rows, ok})
}

type fig9Order struct {
	rows []Fig9Row
	ok   []bool
}

func (o fig9Order) Len() int { return len(o.rows) }

func (o fig9Order) Less(i, j int) bool {
	if o.rows[i].Suite != o.rows[j].Suite {
		return o.rows[i].Suite == "SPEC"
	}
	return o.rows[i].Bench < o.rows[j].Bench
}

func (o fig9Order) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	o.ok[i], o.ok[j] = o.ok[j], o.ok[i]
}
