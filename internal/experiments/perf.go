package experiments

import (
	"sync"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
)

// Scale controls simulation effort. The paper runs 200M warmup + 200M ROI
// instructions per core; the drivers default to a scaled-down budget so
// the full experiment suite completes in minutes, with shapes already
// stable.
type Scale struct {
	WarmupInstr uint64
	ROIInstr    uint64
	Seed        uint64
}

// dramFor scales channels with core count (2 channels per 8 cores).
func dramFor(cores int) cachesim.DRAMConfig {
	cfg := cachesim.DefaultDRAMConfig()
	ch := (cores + 3) / 4
	if ch < 1 {
		ch = 1
	}
	cfg.Channels = ch
	return cfg
}

// homogeneous returns the benchmark repeated for n cores.
func homogeneous(bench string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = bench
	}
	return names
}

// aloneKey identifies a memoized single-core baseline IPC by (bench, scale).
type aloneKey struct {
	bench string
	warm  uint64
	roi   uint64
	seed  uint64
}

var (
	aloneMu    sync.Mutex
	aloneCache = map[aloneKey]float64{}
)

// MixResult is one (mix, design) performance measurement.
type MixResult struct {
	Mix      string
	Design   Design
	WS       float64 // weighted speedup
	MPKI     float64
	IPCs     []float64
	LLCStats cachemodel.Stats
}
