package experiments

import "mayacache/internal/cachesim"

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
