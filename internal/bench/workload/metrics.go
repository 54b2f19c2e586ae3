package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mayacache/internal/metrics"
)

// metricDef declares one reported metric. The end-to-end and per-layer
// tables below are the source of truth that BENCHMARK.json mirrors;
// TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the largest allowed worsening of an end-to-end metric's
	// median, as a share of the parent's median.
	Bound float64
	// Moves and On name, for a per-layer metric, the end-to-end metric
	// and the workload a change to that layer should move.
	Moves, On string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_yardsticks", Unit: "yardstick", Better: "lower", Bound: 0.25},
	{Name: "rss_p50_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// mixDesignKeys and attackDesignKeys spell the Fig 9 designs and the
// Fig 8 designs under attack in metric names.
var (
	mixDesignKeys    = []string{"baseline", "mirage", "maya"}
	attackDesignKeys = []string{"sa16", "maya", "fa"}
)

// perLayer are the metrics a traced run reports, on every workload; a
// metric the workload's layers do not produce reads 0.
var perLayer = func() []metricDef {
	const op = "op_p50_yardsticks"
	const fig9, fig8, sec, srv = "fig9-mix8", "fig8-attack", "secmc", "serve-closed"
	m := []metricDef{
		{Name: "trace.ns_per_event", Unit: "ns", Better: "lower", Moves: op, On: fig9},
		{Name: "private.ns_per_event", Unit: "ns", Better: "lower", Moves: op, On: fig9},
		{Name: "private.l1d_hit_rate", Unit: "ratio", Better: "higher", Moves: op, On: fig9},
		{Name: "private.l2_hit_rate", Unit: "ratio", Better: "higher", Moves: op, On: fig9},
		{Name: "drive.ns_per_event", Unit: "ns", Better: "lower", Moves: op, On: fig9},
	}
	for _, d := range mixDesignKeys {
		m = append(m,
			metricDef{Name: "llc." + d + ".ns_per_access", Unit: "ns", Better: "lower", Moves: op, On: fig9},
			metricDef{Name: "llc." + d + ".accesses", Unit: "count", Better: "lower", Moves: op, On: fig9},
			metricDef{Name: "llc." + d + ".miss_rate", Unit: "ratio", Better: "lower", Moves: op, On: fig9},
			metricDef{Name: "llc." + d + ".memo_hit_rate", Unit: "ratio", Better: "higher", Moves: op, On: fig9},
			metricDef{Name: "llc." + d + ".replay_exact", Unit: "bool", Better: "higher", Moves: op, On: fig9},
		)
	}
	m = append(m,
		metricDef{Name: "dram.ns_per_op", Unit: "ns", Better: "lower", Moves: op, On: fig9},
		metricDef{Name: "dram.row_hit_rate", Unit: "ratio", Better: "higher", Moves: op, On: fig9},
		metricDef{Name: "dram.reads", Unit: "count", Better: "lower", Moves: op, On: fig9},
		metricDef{Name: "dram.writes", Unit: "count", Better: "lower", Moves: op, On: fig9},
		metricDef{Name: "ledger.fig9-mix8.closure", Unit: "ratio", Better: "lower", Moves: op, On: fig9},
	)
	for _, l := range []string{"trace", "private", "drive", "llc", "dram"} {
		m = append(m, metricDef{Name: "ledger.fig9-mix8." + l + "_share", Unit: "ratio", Better: "lower", Moves: op, On: fig9})
	}
	for _, d := range mixDesignKeys {
		m = append(m,
			metricDef{Name: "sim." + d + ".ipc_sum", Unit: "ipc", Better: "higher", Moves: op, On: fig9},
			metricDef{Name: "sim." + d + ".mpki", Unit: "mpki", Better: "lower", Moves: op, On: fig9},
		)
	}
	m = append(m,
		metricDef{Name: "tracing.overhead", Unit: "ratio", Better: "lower", Moves: op, On: fig9},
	)
	for _, d := range attackDesignKeys {
		m = append(m,
			metricDef{Name: "attack.llc." + d + ".ns_per_op", Unit: "ns", Better: "lower", Moves: op, On: fig8},
			metricDef{Name: "attack.llc." + d + ".replay_exact", Unit: "bool", Better: "higher", Moves: op, On: fig8},
		)
	}
	m = append(m,
		metricDef{Name: "attack.llc.maya.memo_hit_rate", Unit: "ratio", Better: "higher", Moves: op, On: fig8},
		metricDef{Name: "prince.ns_per_index", Unit: "ns", Better: "lower", Moves: op, On: fig8},
	)
	for _, d := range attackDesignKeys {
		m = append(m,
			metricDef{Name: "attack." + d + ".s", Unit: "s", Better: "lower", Moves: op, On: fig8},
			metricDef{Name: "attack." + d + ".aes_median", Unit: "count", Better: "higher", Moves: op, On: fig8},
			metricDef{Name: "attack." + d + ".modexp_median", Unit: "count", Better: "higher", Moves: op, On: fig8},
		)
	}
	m = append(m,
		metricDef{Name: "mc.serial_miters_per_s", Unit: "Miter/s", Better: "higher", Moves: op, On: sec},
		metricDef{Name: "mc.shard_speedup", Unit: "x", Better: "higher", Moves: op, On: sec},
		metricDef{Name: "buckets.spills", Unit: "count", Better: "lower", Moves: op, On: sec},
	)
	for _, shape := range []string{"session", "mix8"} {
		m = append(m,
			metricDef{Name: "snapshot." + shape + ".encode_ms", Unit: "ms", Better: "lower", Moves: op, On: srv},
			metricDef{Name: "snapshot." + shape + ".restore_ms", Unit: "ms", Better: "lower", Moves: op, On: srv},
			metricDef{Name: "snapshot." + shape + ".bytes", Unit: "B", Better: "lower", Moves: op, On: srv},
		)
	}
	m = append(m,
		metricDef{Name: "serve.admit_p50_ms", Unit: "ms", Better: "lower", Moves: op, On: srv},
		metricDef{Name: "serve.admit_tail_ms", Unit: "ms", Better: "lower", Moves: op, On: srv},
		metricDef{Name: "serve.session_tail_ms", Unit: "ms", Better: "lower", Moves: op, On: srv},
		metricDef{Name: "serve.tail_pct", Unit: "%", Better: "higher", Moves: op, On: srv},
		metricDef{Name: "serve.sessions", Unit: "count", Better: "higher", Moves: op, On: srv},
		metricDef{Name: "serve.shed", Unit: "count", Better: "lower", Moves: op, On: srv},
		metricDef{Name: "serve.sim_share", Unit: "ratio", Better: "higher", Moves: op, On: srv},
	)
	return m
}()

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// assemble fills defs from vals, reading 0 for absent names, and prints
// every metric as a `name value unit` line before the JSON result line.
func assemble(w io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int, correct bool) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tail is a timing summary in the form the metrics guide asks for: the
// median, the highest whole percentile with at least ten samples beyond
// it, and the sample count. OK is false when there are too few samples
// for any percentile to have ten beyond it.
type tail struct {
	N      int
	Median float64
	Pct    int
	Value  float64
	OK     bool
}

// tailOf summarizes xs. The percentile uses the nearest-rank rule: the
// p-th percentile is the ceil(p·n/100)-th smallest sample, so exactly
// n − ceil(p·n/100) samples lie beyond it.
func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{N: n, Median: metrics.Median(xs)}
	if n <= 10 {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := 100 * (n - 10) / n
	for p > 0 && n-ceilDiv(p*n, 100) < 10 {
		p--
	}
	if p == 0 {
		return t
	}
	t.Pct, t.Value, t.OK = p, s[ceilDiv(p*n, 100)-1], true
	return t
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// seconds converts timings for reporting.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ms converts a timing to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// passes runs pass until the window closes (at least once) and returns
// each metric's median over the passes.
func (r *runner) passes(pass func() (map[string]float64, error)) (map[string]float64, error) {
	byName := map[string][]float64{}
	r.startWindow()
	for n := 0; r.more(n); n++ {
		p, err := pass()
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			byName[k] = append(byName[k], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for k, vs := range byName {
		out[k] = metrics.Median(vs)
	}
	return out, nil
}

// statusMB reads one kB-valued field of /proc/self/status (VmRSS, VmHWM)
// in MB.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// rssSampler reads the process's resident set (VmRSS) every period until
// stopped.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

func sampleRSS(period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			mb, err := statusMB("VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// samples stops the sampler, waits for it, and returns what it read.
func (s *rssSampler) samples() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.mb, s.err
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// boolMetric reports a check as 1 or 0.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
