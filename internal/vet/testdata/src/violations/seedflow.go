package violations

import (
	"encoding/binary"
	"os"
	"runtime"

	"vetfixture/cachesim"
	"vetfixture/rng"
	"vetfixture/snapshot"
)

// Results is the record type the determinism contract protects: seedflow
// treats writes into any type named Results as a sink.
type Results struct {
	Checksum uint64
}

// PidIntoResults stamps process identity into a results record.
func PidIntoResults(r *Results) {
	r.Checksum = uint64(os.Getpid()) // want: seedflow
}

// CpuSeed seeds the generator from machine width.
func CpuSeed() *rng.Rand {
	return rng.New(uint64(runtime.NumCPU())) // want: seedflow
}

// cores hides the source one call deep.
func cores() int {
	return runtime.NumCPU()
}

// HiddenCpuSeed seeds through the helper: only the interprocedural
// summary of cores() can see the NumCPU inside.
func HiddenCpuSeed() *rng.Rand {
	return rng.New(uint64(cores())) // want: seedflow
}

type sampler struct {
	r *rng.Rand
}

// setSeed is a parameter sink: whatever x carries reaches rng seed
// material, so tainted call sites are reported at the caller.
func setSeed(s *sampler, x uint64) {
	s.r = rng.New(x)
}

// EnvSeed taints at the call site, through setSeed's parameter summary;
// the len() keeps the value dependent on the environment.
func EnvSeed(s *sampler) {
	setSeed(s, uint64(len(os.Getenv("MAYA_SEED")))) // want: seedflow
}

// PidIntoSnapshot serializes process identity into a snapshot payload.
func PidIntoSnapshot(e *snapshot.Encoder) {
	e.U64(uint64(os.Getpid())) // want: seedflow
}

// PidIntoRecord fills a record reserved in a snapshot payload with
// process identity, through encoding/binary rather than an Encoder method.
func PidIntoRecord(r []byte) {
	binary.LittleEndian.PutUint64(r, uint64(os.Getpid())) // want: seedflow
}

// GomaxprocsBudget puts machine width into a results-affecting budget
// field: only RunSpec.Parallelism is a sanctioned scheduling knob, every
// other field still carries its taint into the run.
func GomaxprocsBudget() *rng.Rand {
	spec := cachesim.RunSpec{Warmup: uint64(runtime.GOMAXPROCS(0)), Parallelism: 1}
	return cachesim.Run(spec) // want: seedflow
}
