package maya

import (
	"mayacache/internal/analytic"
	"mayacache/internal/buckets"
	"mayacache/internal/cachemodel"
	"mayacache/internal/power"
)

// Security analysis re-exports: the bucket-and-balls Monte-Carlo model and
// the analytical Birth-Death chain of Section IV.

// BucketModelConfig parameterizes the Monte-Carlo security model.
type BucketModelConfig = buckets.Config

// BucketModel is a runnable bucket-and-balls simulation.
type BucketModel = buckets.Model

// Bucket-model modes.
const (
	BucketModeMaya      = buckets.ModeMaya
	BucketModeMirage    = buckets.ModeMirage
	BucketModeThreshold = buckets.ModeThreshold
)

// NewBucketModel builds a bucket-and-balls model.
func NewBucketModel(cfg BucketModelConfig) *BucketModel { return buckets.New(cfg) }

// DefaultBucketModel returns the paper's Table II configuration for the
// Maya tag store.
func DefaultBucketModel(bucketsPerSkew int, seed uint64) BucketModelConfig {
	return buckets.MayaDefault(bucketsPerSkew, seed)
}

// SecurityPoint describes a design for the analytical model: a row of
// the design table, of which the model reads the ways per skew.
type SecurityPoint = cachemodel.Row

// InstallsPerSAE solves the analytical Birth-Death model for the given
// configuration and returns the expected cache-line installs between
// set-associative evictions (the paper's security metric; the default
// Maya configuration yields ~1e33, i.e. one SAE in ~1e16 years).
func InstallsPerSAE(p SecurityPoint) (float64, error) { return analytic.InstallsPerSAE(p) }

// YearsPerSAE converts installs to years at one fill per nanosecond.
func YearsPerSAE(installs float64) float64 { return analytic.YearsPerSAE(installs) }

// Storage/cost accounting re-exports (Tables VIII and IX).

// StorageAccount returns the exact Table VIII storage breakdown of the
// named design, or an error wrapping cachemodel.ErrBadConfig for a name
// the design table does not hold.
func StorageAccount(d Design) (power.Storage, error) {
	r, err := cachemodel.Lookup(string(d))
	if err != nil {
		return power.Storage{}, err
	}
	return power.Account(r), nil
}

// CostEstimate returns the Table IX energy/power/area estimates of the
// named design, or an error wrapping cachemodel.ErrBadConfig for a name
// the design table does not hold.
func CostEstimate(d Design) (power.Costs, error) {
	r, err := cachemodel.Lookup(string(d))
	if err != nil {
		return power.Costs{}, err
	}
	return power.Estimate(r), nil
}
