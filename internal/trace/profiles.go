package trace

import (
	"fmt"
	"sort"
)

// The registry models each paper benchmark as a Profile. Footprints are
// per core, in 64-byte lines (32K lines = 2MB). Calibration targets, from
// the paper: >80% average dead blocks at a 2MB LLC (Fig 1), ~13.9 average
// LLC MPKI for the 8-core homogeneous mixes (Table VII), and the Fig 9
// winners/losers (mcf/wrf/fotonik3d/pr gain under Maya; lbm pays the
// latency; cactuBSSN/cam4 prefer the bigger baseline data store; GAP
// bc/cc/sssp suffer added inter-core interference).
var registry = map[string]Profile{
	// ---- SPEC CPU2017 memory-intensive (Fig 1's fifteen) ----
	"perlbench": { // latency-neutral: hot + light always-miss traffic
		Name: "perlbench", Suite: "SPEC", MemRatio: 0.30, WriteRatio: 0.25,
		WHot: 0.955, WMed: 0.015, WStream: 0.02, WRand: 0.01,
		HotLines: 6 << 10, MedLines: 8 << 10, RandLines: 2 << 20,
		MedZipf: 0.80, LineRepeat: 4,
	},
	"gcc": { // latency-neutral
		Name: "gcc", Suite: "SPEC", MemRatio: 0.32, WriteRatio: 0.28,
		WHot: 0.945, WStream: 0.025, WRand: 0.03,
		HotLines: 8 << 10, RandLines: 2 << 20,
		MedZipf: 0.70, LineRepeat: 4,
	},
	"bwaves": { // stream-heavy HPC; small fitting med
		Name: "bwaves", Suite: "SPEC", MemRatio: 0.42, WriteRatio: 0.18,
		WHot: 0.865, WMed: 0.01, WStream: 0.11, WRand: 0.015,
		HotLines: 4 << 10, MedLines: 10 << 10, RandLines: 1 << 20,
		MedZipf: 0.80, LineRepeat: 5,
	},
	"mcf": { // Maya gainer: skewed oversized med + stride conflicts
		Name: "mcf", Suite: "SPEC", MemRatio: 0.38, WriteRatio: 0.20,
		WHot: 0.855, WMed: 0.025, WRand: 0.10, WStride: 0.02,
		HotLines: 4 << 10, MedLines: 40 << 10, RandLines: 6 << 20,
		StrideLines: 4096, StrideCount: 512,
		MedZipf: 0.95, LineRepeat: 3,
	},
	"cactuBSSN": { // Maya loser: live 15MB set fits 16MB, not 12MB
		Name: "cactuBSSN", Suite: "SPEC", MemRatio: 0.40, WriteRatio: 0.30,
		WHot: 0.52, WMed: 0.44, WStream: 0.04,
		HotLines: 6 << 10, MedLines: 30 << 10, RandLines: 0,
		MedZipf: 0.70, LineRepeat: 4,
	},
	"lbm": { // pure streaming: everyone pays DRAM; secure designs pay +4cyc
		Name: "lbm", Suite: "SPEC", MemRatio: 0.40, WriteRatio: 0.45,
		WHot: 0.13, WStream: 0.85, WRand: 0.02,
		HotLines: 2 << 10, RandLines: 2 << 20,
		LineRepeat: 10,
	},
	"omnetpp": { // latency-neutral pointer chaser
		Name: "omnetpp", Suite: "SPEC", MemRatio: 0.33, WriteRatio: 0.20,
		WHot: 0.92, WMed: 0.005, WRand: 0.075,
		HotLines: 6 << 10, MedLines: 16 << 10, RandLines: 3 << 20,
		MedZipf: 0.80, LineRepeat: 3,
	},
	"wrf": { // Maya gainer
		Name: "wrf", Suite: "SPEC", MemRatio: 0.40, WriteRatio: 0.25,
		WHot: 0.88, WMed: 0.015, WStream: 0.065, WRand: 0.02, WStride: 0.02,
		HotLines: 5 << 10, MedLines: 36 << 10, RandLines: 1 << 20,
		StrideLines: 4096, StrideCount: 512,
		MedZipf: 0.95, LineRepeat: 4,
	},
	"xalancbmk": { // small fitting med: slight Maya edge
		Name: "xalancbmk", Suite: "SPEC", MemRatio: 0.31, WriteRatio: 0.22,
		WHot: 0.92, WMed: 0.02, WRand: 0.06,
		HotLines: 7 << 10, MedLines: 10 << 10, RandLines: 2 << 20,
		MedZipf: 0.85, LineRepeat: 4,
	},
	"x264": { // small fitting med
		Name: "x264", Suite: "SPEC", MemRatio: 0.30, WriteRatio: 0.30,
		WHot: 0.935, WMed: 0.02, WStream: 0.035, WRand: 0.01,
		HotLines: 8 << 10, MedLines: 8 << 10, RandLines: 1 << 20,
		MedZipf: 0.60, LineRepeat: 5,
	},
	"cam4": { // Maya loser, like cactuBSSN
		Name: "cam4", Suite: "SPEC", MemRatio: 0.36, WriteRatio: 0.28,
		WHot: 0.56, WMed: 0.40, WStream: 0.04,
		HotLines: 6 << 10, MedLines: 28 << 10, RandLines: 0,
		MedZipf: 0.70, LineRepeat: 4,
	},
	"pop2": { // small fitting med + stream
		Name: "pop2", Suite: "SPEC", MemRatio: 0.37, WriteRatio: 0.18,
		WHot: 0.90, WMed: 0.005, WStream: 0.08, WRand: 0.015,
		HotLines: 6 << 10, MedLines: 12 << 10, RandLines: 1 << 20,
		MedZipf: 0.70, LineRepeat: 4,
	},
	"fotonik3d": { // Maya gainer
		Name: "fotonik3d", Suite: "SPEC", MemRatio: 0.41, WriteRatio: 0.22,
		WHot: 0.86, WMed: 0.015, WStream: 0.085, WRand: 0.02, WStride: 0.02,
		HotLines: 4 << 10, MedLines: 40 << 10, RandLines: 1 << 20,
		StrideLines: 4096, StrideCount: 512,
		MedZipf: 0.95, LineRepeat: 4,
	},
	"roms": { // stream + small stride: mild gains for secure designs
		Name: "roms", Suite: "SPEC", MemRatio: 0.40, WriteRatio: 0.24,
		WHot: 0.848, WMed: 0.015, WStream: 0.11, WRand: 0.015, WStride: 0.012,
		HotLines: 5 << 10, MedLines: 12 << 10, RandLines: 1 << 20,
		StrideLines: 4096, StrideCount: 384,
		MedZipf: 0.85, LineRepeat: 4,
	},
	"xz": { // latency-neutral
		Name: "xz", Suite: "SPEC", MemRatio: 0.34, WriteRatio: 0.20,
		WHot: 0.925, WMed: 0.005, WRand: 0.07,
		HotLines: 6 << 10, MedLines: 12 << 10, RandLines: 3 << 20,
		MedZipf: 0.60, LineRepeat: 3,
	},

	// ---- GAP benchmarks (Fig 1's five) ----
	"bfs": { // random-dominated: near-neutral
		Name: "bfs", Suite: "GAP", MemRatio: 0.36, WriteRatio: 0.15,
		WHot: 0.94, WMed: 0.005, WStream: 0.015, WRand: 0.04,
		HotLines: 4 << 10, MedLines: 6 << 10, RandLines: 8 << 20,
		MedZipf: 0.60, LineRepeat: 1,
	},
	"bc": { // Maya loser: 13MB live med churns the 12MB data store
		Name: "bc", Suite: "GAP", MemRatio: 0.38, WriteRatio: 0.20,
		WHot: 0.705, WMed: 0.24, WStream: 0.035, WRand: 0.02,
		HotLines: 4 << 10, MedLines: 28 << 10, RandLines: 8 << 20,
		MedZipf: 0.40, LineRepeat: 1,
	},
	"cc": { // Maya loser
		Name: "cc", Suite: "GAP", MemRatio: 0.37, WriteRatio: 0.14,
		WHot: 0.715, WMed: 0.23, WStream: 0.035, WRand: 0.02,
		HotLines: 3 << 10, MedLines: 28 << 10, RandLines: 8 << 20,
		MedZipf: 0.40, LineRepeat: 1,
	},
	"pr": { // big gainer: cyclic 18MB scan defeats RRIP, not random
		Name: "pr", Suite: "GAP", MemRatio: 0.40, WriteRatio: 0.16,
		WHot: 0.883, WScan: 0.03, WStream: 0.015, WRand: 0.02, WStride: 0.042,
		HotLines: 3 << 10, ScanLines: 36 << 10, RandLines: 8 << 20,
		StrideLines: 4096, StrideCount: 768,
		LineRepeat: 1,
	},
	"sssp": { // Maya loser
		Name: "sssp", Suite: "GAP", MemRatio: 0.39, WriteRatio: 0.22,
		WHot: 0.70, WMed: 0.24, WStream: 0.035, WRand: 0.025,
		HotLines: 4 << 10, MedLines: 29 << 10, RandLines: 8 << 20,
		MedZipf: 0.40, LineRepeat: 1,
	},

	// ---- LLC-fitting benchmarks (MPKI < 0.5, Section V-B) ----
	"deepsjeng": {
		Name: "deepsjeng", Suite: "SPEC", MemRatio: 0.28, WriteRatio: 0.25,
		WHot: 0.92, WMed: 0.08,
		HotLines: 10 << 10, MedLines: 20 << 10,
		MedZipf: 0.80, LineRepeat: 4,
	},
	"leela": {
		Name: "leela", Suite: "SPEC", MemRatio: 0.26, WriteRatio: 0.22,
		WHot: 0.95, WMed: 0.05,
		HotLines: 8 << 10, MedLines: 16 << 10,
		MedZipf: 0.80, LineRepeat: 4,
	},
	"exchange2": {
		Name: "exchange2", Suite: "SPEC", MemRatio: 0.24, WriteRatio: 0.30,
		WHot: 0.97, WMed: 0.03,
		HotLines: 6 << 10, MedLines: 12 << 10,
		MedZipf: 0.80, LineRepeat: 5,
	},
	"nab": {
		Name: "nab", Suite: "SPEC", MemRatio: 0.30, WriteRatio: 0.24,
		WHot: 0.90, WMed: 0.10,
		HotLines: 12 << 10, MedLines: 24 << 10,
		MedZipf: 0.75, LineRepeat: 4,
	},
}

// Lookup returns the profile registered under name.
func Lookup(name string) (Profile, error) {
	p, ok := registry[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
	}
	return p, nil
}

// Names returns all registered benchmark names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	//mayavet:ignore maporder -- names are sorted immediately below
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SpecMemIntensive returns the fifteen memory-intensive SPEC CPU2017
// benchmarks of Fig 1, in the paper's order.
func SpecMemIntensive() []string {
	return []string{
		"perlbench", "gcc", "bwaves", "mcf", "cactuBSSN", "lbm", "omnetpp",
		"wrf", "xalancbmk", "x264", "cam4", "pop2", "fotonik3d", "roms", "xz",
	}
}

// GapMemIntensive returns the five GAP benchmarks of Fig 1.
func GapMemIntensive() []string {
	return []string{"bc", "bfs", "cc", "pr", "sssp"}
}

// LLCFitting returns the low-MPKI benchmarks used for the Section V-B
// LLC-fitting sensitivity study.
func LLCFitting() []string {
	return []string{"deepsjeng", "leela", "exchange2", "nab"}
}

// MixBin classifies heterogeneous mixes by their baseline LLC MPKI.
type MixBin string

// Bin levels from Table VI/VII.
const (
	BinLow    MixBin = "LOW"
	BinMedium MixBin = "MEDIUM"
	BinHigh   MixBin = "HIGH"
)

// Mix is one heterogeneous 8-core composition from Table VI.
type Mix struct {
	Name       string
	Bin        MixBin
	Benchmarks []string // exactly 8 entries, one per core
}

// expand turns "name(n)" pairs into a flat 8-core list.
func expand(pairs ...any) []string {
	var out []string
	for i := 0; i < len(pairs); i += 2 {
		name := pairs[i].(string)
		n := pairs[i+1].(int)
		for j := 0; j < n; j++ {
			out = append(out, name)
		}
	}
	return out
}

// HeteroMixes returns the 21 heterogeneous mixes of Table VI.
func HeteroMixes() []Mix {
	return []Mix{
		{"M1", BinLow, expand("cactuBSSN", 2, "wrf", 1, "xalancbmk", 1, "pop2", 1, "roms", 1, "xz", 1, "sssp", 1)},
		{"M2", BinLow, expand("bwaves", 1, "mcf", 1, "cactuBSSN", 1, "wrf", 1, "xalancbmk", 1, "xz", 1, "bfs", 1, "sssp", 1)},
		{"M3", BinLow, expand("mcf", 1, "cactuBSSN", 1, "omnetpp", 1, "xalancbmk", 1, "roms", 1, "bfs", 1, "cc", 1, "sssp", 1)},
		{"M4", BinLow, expand("perlbench", 1, "bwaves", 1, "mcf", 3, "cam4", 1, "xz", 1, "bc", 1)},
		{"M5", BinLow, expand("perlbench", 1, "mcf", 2, "cactuBSSN", 1, "roms", 1, "xz", 1, "bc", 1, "pr", 1)},
		{"M6", BinLow, expand("gcc", 1, "mcf", 2, "cactuBSSN", 1, "lbm", 2, "fotonik3d", 1, "roms", 1)},
		{"M7", BinLow, expand("bwaves", 1, "mcf", 1, "cactuBSSN", 1, "pop2", 1, "xz", 1, "bc", 2, "sssp", 1)},
		{"M8", BinMedium, expand("gcc", 2, "bwaves", 1, "x264", 1, "bc", 1, "cc", 1, "pr", 1, "sssp", 1)},
		{"M9", BinMedium, expand("gcc", 1, "cactuBSSN", 1, "lbm", 1, "xalancbmk", 1, "x264", 1, "cam4", 1, "pr", 1, "sssp", 1)},
		{"M10", BinMedium, expand("mcf", 3, "lbm", 1, "wrf", 1, "fotonik3d", 2, "sssp", 1)},
		{"M11", BinMedium, expand("mcf", 3, "lbm", 1, "omnetpp", 1, "pop2", 1, "roms", 1, "cc", 1)},
		{"M12", BinMedium, expand("mcf", 2, "cactuBSSN", 1, "fotonik3d", 1, "roms", 2, "cc", 1, "pr", 1)},
		{"M13", BinMedium, expand("bwaves", 1, "mcf", 1, "xalancbmk", 1, "fotonik3d", 1, "roms", 2, "bc", 1, "sssp", 1)},
		{"M14", BinMedium, expand("mcf", 1, "lbm", 1, "xalancbmk", 1, "roms", 1, "bc", 1, "cc", 1, "sssp", 2)},
		{"M15", BinHigh, expand("bwaves", 1, "cactuBSSN", 1, "lbm", 1, "roms", 2, "bfs", 1, "pr", 1, "sssp", 1)},
		{"M16", BinHigh, expand("mcf", 3, "cactuBSSN", 1, "lbm", 1, "bfs", 2, "cc", 1)},
		{"M17", BinHigh, expand("mcf", 1, "cactuBSSN", 1, "wrf", 1, "xalancbmk", 1, "x264", 1, "bc", 1, "pr", 2)},
		{"M18", BinHigh, expand("omnetpp", 1, "wrf", 1, "fotonik3d", 1, "roms", 1, "bc", 2, "cc", 1, "sssp", 1)},
		{"M19", BinHigh, expand("bwaves", 1, "mcf", 2, "cactuBSSN", 1, "xalancbmk", 1, "bfs", 1, "pr", 1, "sssp", 1)},
		{"M20", BinHigh, expand("perlbench", 1, "mcf", 2, "omnetpp", 1, "fotonik3d", 1, "pr", 1, "sssp", 2)},
		{"M21", BinHigh, expand("gcc", 1, "bwaves", 1, "mcf", 2, "lbm", 1, "bc", 1, "pr", 2)},
	}
}
