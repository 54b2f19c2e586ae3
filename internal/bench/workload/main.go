package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"mayacache/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark input set: run measures the end-to-end
// metrics, traced the per-layer ones.
type workload struct {
	name   string
	why    string
	run    func(r *runner) error
	traced func(r *runner) (map[string]float64, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:   "fig9-mix8",
		why:    "Fig 9/10 sweep unit: 8-core mix M16 on Baseline, Mirage and Maya; trace, private caches, drive loop and LLC bookkeeping all weigh, PRINCE never runs",
		run:    runMix8,
		traced: traceMix8,
	},
	{
		name:   "fig8-attack",
		why:    "Fig 8 occupancy attack on 16-way SA, Maya and fully-associative caches: LLC accesses with PRINCE and the memo on the hot path, no cachesim",
		run:    runAttack,
		traced: traceAttack,
	},
	{
		name:   "secmc",
		why:    "Fig 7 bucket-and-balls Monte Carlo on 2 shards: the security model alone, with no cache simulator involved",
		run:    runSecMC,
		traced: traceSecMC,
	},
	{
		name:   "serve-closed",
		why:    "2 closed-loop HTTP clients on a 1-worker session service: admission with journal fsync, queueing, snapshot encoding and cell saves",
		run:    runServe,
		traced: traceServe,
	},
}

// rssPeriod is how often an untraced run samples its resident set.
const rssPeriod = 20 * time.Millisecond

// maxWorkers bounds the threads the process runs Go code on. The timed
// work of an untraced run uses one of them: attack trials, Monte-Carlo
// shards and sessions each run one at a time, and the other thread is left
// to the collector, the resident-set sampler and the HTTP goroutines.
const maxWorkers = 2

// scale fixes the load of every workload. The benchmark runs fullScale;
// the tests run tinyScale.
type scale struct {
	// Warmup and ROI are per-core instruction budgets of the mix runs.
	Warmup, ROI uint64
	// The Fig 8 job: cache sets, repetitions, sample cap, noise lines,
	// and the per-trial cap on recorded LLC operations (traced runs).
	AttackSets, AttackRuns, AttackMax, AttackNoise, RecordCap int
	// The Fig 7 run.
	MCBuckets int
	MCIters   uint64
	// Session budgets and the service's snapshot cadence, in steps.
	SessWarmup, SessROI, SessSnapEvery uint64
	// Each run times at least SetupReps set-ups before its window, and
	// keeps setting up until SetupBudget has passed, so a set-up of a few
	// hundred microseconds gets a median over hundreds of samples.
	SetupReps   int
	SetupBudget time.Duration
}

func fullScale() scale {
	return scale{
		Warmup: 1_000_000, ROI: 1_000_000,
		AttackSets: 64, AttackRuns: 2, AttackMax: 2000, AttackNoise: 16, RecordCap: 1 << 19,
		MCBuckets: 16384, MCIters: 5_000_000,
		SessWarmup: 50_000, SessROI: 100_000, SessSnapEvery: 1 << 14,
		SetupReps: 21, SetupBudget: 300 * time.Millisecond,
	}
}

func tinyScale() scale {
	return scale{
		Warmup: 20_000, ROI: 20_000,
		AttackSets: 16, AttackRuns: 2, AttackMax: 64, AttackNoise: 4, RecordCap: 1 << 14,
		MCBuckets: 256, MCIters: 20_000,
		SessWarmup: 5_000, SessROI: 10_000, SessSnapEvery: 1 << 10,
		SetupReps: 2,
	}
}

// pins are the outputs of a full-scale seed-1 run, recorded in
// testdata/digests.json.
type pins struct {
	Seed uint64 `json:"seed"`
	// Mix8 maps each Fig 9 design to the SHA-256 of its Results JSON.
	Mix8 map[string]string `json:"fig9-mix8"`
	// Attack maps each Fig 8 design to its per-trial sample counts.
	Attack map[string]attackPin `json:"fig8-attack"`
	// MC is the SHA-256 of the Fig 7 ShardedResult JSON.
	MC string `json:"secmc"`
	// Serve maps each session benchmark to the SHA-256 of its result.
	Serve map[string]string `json:"serve-closed"`
}

type attackPin struct {
	AES    []int `json:"aes"`
	ModExp []int `json:"modexp"`
}

//go:embed testdata/digests.json
var pinData []byte

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinData, &p); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return &p, nil
}

// runner carries one run's settings and accumulates what it measured.
type runner struct {
	ctx    context.Context
	seed   uint64
	sc     scale
	window time.Duration
	start  time.Time
	// ref holds the full-scale reference outputs (nil at other scales);
	// they are checked only when the run's seed is ref.Seed.
	ref *pins

	attempted, failed int
	problems          []string
	firsts            map[string]string

	setups []time.Duration
	// opMS holds one sample per op. An op made of parts (the designs of a
	// cell, the cells of a job) also records each part's time, and its
	// reported time is the sum of the parts' medians, so one slow part of
	// one op moves the estimate no more than one slow op would.
	opMS      []float64
	parts     map[string][]float64
	partNames []string
	// ysMS holds the yardstick's pass times; ysTable is its table.
	ysMS    []float64
	ysTable []uint64
	info    []infoLine
}

type infoLine struct {
	name, unit string
	v          float64
}

func newRunner(ctx context.Context, seed uint64, sc scale, window time.Duration, ref *pins) *runner {
	return &runner{ctx: ctx, seed: seed, sc: sc, window: window, ref: ref,
		firsts: map[string]string{}, parts: map[string][]float64{}, start: time.Now()}
}

// part records one part of the current op.
func (r *runner) part(name string, ms float64) {
	if _, ok := r.parts[name]; !ok {
		r.partNames = append(r.partNames, name)
	}
	r.parts[name] = append(r.parts[name], ms)
}

// pinned returns the reference outputs when this run must reproduce them.
func (r *runner) pinned() *pins {
	if r.ref != nil && r.seed == r.ref.Seed {
		return r.ref
	}
	return nil
}

// startWindow opens the measurement window.
func (r *runner) startWindow() { r.start = time.Now() }

// more reports whether another op or part starts: always the first, then
// while the window is open.
func (r *runner) more(done int) bool {
	return done == 0 || time.Since(r.start) < r.window
}

// fail counts ops as failed and records why.
func (r *runner) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// agree checks one op's output digest for key: against want when the run
// is pinned, else against the first digest seen for key, so every rep of
// a run produces identical bytes.
func (r *runner) agree(key, got, want string, ops int) {
	if want == "" {
		first, ok := r.firsts[key]
		if !ok {
			r.firsts[key] = got
			return
		}
		want = first
	}
	if got != want {
		r.fail(ops, "%s: output digest %.16s, want %.16s", key, got, want)
	}
}

func (r *runner) note(name string, v float64, unit string) {
	r.info = append(r.info, infoLine{name, unit, v})
}

// minHeapGoal is the Go collector's minimum heap goal.
const minHeapGoal = 4 << 20

// timeSetups times calls of build before the window opens, at least
// SetupReps and until SetupBudget has passed, and releases what each
// built, untimed, through the function it returned (nil when nothing
// needs releasing). A set-up that allocates more than
// the collector's minimum heap goal would trigger collections inside its
// own timing, at points that depend on the garbage the previous one left,
// so such set-ups each start on a collected heap. Smaller ones do not:
// collecting before them made their time depend on whether the runtime
// had yet returned the freed pages to the operating system.
func (r *runner) timeSetups(build func() (release func() error, err error)) error {
	collect := false
	begin := time.Now()
	for i := 0; i < r.sc.SetupReps || time.Since(begin) < r.sc.SetupBudget; i++ {
		if collect {
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		release, err := build()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t))
		runtime.ReadMemStats(&after)
		collect = after.TotalAlloc-before.TotalAlloc > minHeapGoal
		if release != nil {
			if err := release(); err != nil {
				return err
			}
		}
	}
	return nil
}

// endToEnd reduces the run's samples to the end-to-end metrics and notes
// the sample counts and tails behind them.
func (r *runner) endToEnd(rssMB []float64) (map[string]float64, error) {
	peak, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	r.note("rss_samples", float64(len(rssMB)), "count")
	r.note("peak_rss_mb", peak, "MB")
	set := metrics.Median(seconds(r.setups))
	op := tailOf(r.opMS)
	r.note("setup_samples", float64(len(r.setups)), "count")
	r.note("setup_p50_raw_s", set, "s")
	r.note("op_samples", float64(op.N), "count")
	if op.OK {
		r.note("op_tail_pct", float64(op.Pct), "%")
		r.note("op_tail_ms", op.Value, "ms")
	}
	opMS, ysMS := r.opP50(), metrics.Median(r.ysMS)
	r.note("op_p50_ms", opMS, "ms")
	r.note("yardstick_samples", float64(len(r.ysMS)), "count")
	r.note("yardstick_p50_ms", ysMS, "ms")
	return map[string]float64{
		"setup_s":           set * ratio(yardstickRefMS, ysMS),
		"op_p50_yardsticks": ratio(opMS, ysMS),
		"rss_p50_mb":        metrics.Median(rssMB),
	}, nil
}

// opP50 is the median time of one op in ms.
func (r *runner) opP50() float64 {
	if len(r.partNames) == 0 {
		return metrics.Median(r.opMS)
	}
	sum := 0.0
	for _, n := range r.partNames {
		sum += metrics.Median(r.parts[n])
	}
	return sum
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// run is the command: it parses flags, runs one workload, prints every
// metric, and returns the exit status (0 ok, 1 failed check or op, 2
// usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workloadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	secs := fs.Int("seconds", 10, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "workloadbench: unexpected arguments %v\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "workloadbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *secs < 1 || *secs > 600:
		fmt.Fprintf(stderr, "workloadbench: -seconds must be 1..600, got %d\n", *secs)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "workloadbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	ref, err := loadPins()
	if err != nil {
		fmt.Fprintf(stderr, "workloadbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(min(maxWorkers, runtime.NumCPU()))
	// The deadline is a safety net for a hung op; a healthy run ends
	// within its window plus one op.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*secs)*time.Second+150*time.Second)
	defer cancel()
	r := newRunner(ctx, *seed, fullScale(), time.Duration(*secs)*time.Second, ref)
	return report(r, w, *traced == 1, stdout, stderr)
}

// report runs w under r and prints its metrics; it returns the exit
// status.
func report(r *runner, w workload, traced bool, stdout, stderr io.Writer) int {
	var vals map[string]float64
	defs := endToEnd
	var err error
	if traced {
		defs = perLayer
		vals, err = w.traced(r)
	} else {
		rs := sampleRSS(rssPeriod)
		err = w.run(r)
		rss, serr := rs.samples()
		if err == nil {
			err = serr
		}
		if err == nil {
			vals, err = r.endToEnd(rss)
		}
	}
	if err != nil {
		r.problems = append(r.problems, err.Error())
		r.attempted = max(r.attempted, 1)
		r.failed = max(r.failed, 1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "workloadbench: %s: %s\n", w.name, p)
	}
	for _, l := range r.info {
		fmt.Fprintf(stdout, "%s %g %s\n", l.name, l.v, l.unit)
	}
	correct := r.failed == 0 && len(r.problems) == 0
	if err := assemble(stdout, defs, vals, r.attempted, r.failed, correct); err != nil {
		fmt.Fprintf(stderr, "workloadbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}
