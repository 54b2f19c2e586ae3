package maya

import (
	"context"
	"io"

	"mayacache/internal/opt"
	"mayacache/internal/trace"
)

// Offline analysis and trace tooling re-exports.

// OPTResult summarizes a Belady-MIN offline analysis.
type OPTResult = opt.Result

// AnalyzeOPT runs Belady's MIN (optimal offline replacement) over a
// recorded line-address stream at the given fully-associative capacity.
// It reports the optimal miss count, the compulsory floor, and the
// stream's inherent dead-on-arrival fill count — the population Maya's
// reuse filter targets.
func AnalyzeOPT(stream []uint64, capacity int) (OPTResult, error) {
	return opt.Analyze(stream, capacity)
}

// TraceEvent is one instruction-stream step of a synthetic workload.
type TraceEvent = trace.Event

// TraceGenerator produces an infinite stream of events.
type TraceGenerator = trace.Generator

// NewWorkloadGenerator instantiates a registered benchmark for a core.
func NewWorkloadGenerator(name string, coreID int, seed uint64) (TraceGenerator, error) {
	p, err := trace.Lookup(name)
	if err != nil {
		return nil, err
	}
	return trace.NewGenerator(p, coreID, seed)
}

// CaptureTrace materializes n events from a generator.
func CaptureTrace(g TraceGenerator, n int) []TraceEvent { return trace.Capture(g, n) }

// WriteTrace serializes events in the repository's compact gzip format.
func WriteTrace(w io.Writer, events []TraceEvent) error { return trace.WriteEvents(w, events) }

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	return trace.ReadEvents(context.Background(), r)
}

// NewTraceReplayer wraps recorded events as a generator (wrapping at the
// end), usable as a custom workload via SystemConfig. An empty event
// slice is an error.
func NewTraceReplayer(name string, events []TraceEvent) (TraceGenerator, error) {
	return trace.NewReplayer(name, events)
}
