package cachemodel

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// ErrBadConfig is wrapped by every construction error a design's checked
// constructor returns for invalid geometry or parameters, so callers can
// classify configuration mistakes (exit-2 taxonomy in cmd/mayasim) without
// matching message text:
//
//	if errors.Is(err, cachemodel.ErrBadConfig) { ... }
var ErrBadConfig = errors.New("invalid cache configuration")

// BadConfigf builds a construction error wrapping ErrBadConfig.
func BadConfigf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrBadConfig)...)
}

// DefaultSetsPerCore is the per-core set count designs scale by: a 2MB/core
// 16-way baseline slice has 2MB / 64B / 16 = 2048 sets.
const DefaultSetsPerCore = 2048

// BuildOptions parameterizes registry construction. The zero value plus
// Cores >= 1 builds every design at its paper-default geometry.
type BuildOptions struct {
	// Cores scales capacity (2MB baseline-equivalent per core).
	Cores int
	// SetsPerCore overrides the per-core set count (0: DefaultSetsPerCore).
	SetsPerCore int
	// Seed drives keys and randomness.
	Seed uint64
	// FastHash selects the non-cryptographic index hasher for bulk
	// performance sweeps (see XorHasher); security and attack experiments
	// leave it false so randomized designs default to PRINCE.
	FastHash bool
	// ReuseWays overrides Maya's reuse ways per skew (0 = design default).
	ReuseWays int
}

// Sets returns the scaled set count, or an ErrBadConfig error when Cores
// is not positive.
func (o BuildOptions) Sets() (int, error) {
	if o.Cores <= 0 {
		return 0, BadConfigf("cachemodel: Cores must be positive, got %d", o.Cores)
	}
	per := o.SetsPerCore
	if per == 0 {
		per = DefaultSetsPerCore
	}
	if per <= 0 || per&(per-1) != 0 {
		return 0, BadConfigf("cachemodel: SetsPerCore must be a positive power of two, got %d", per)
	}
	return per * o.Cores, nil
}

// Hasher returns the index hasher the options select: an XorHasher when
// FastHash is set, nil otherwise (designs then default to PRINCE).
func (o BuildOptions) Hasher(skews, sets int) IndexHasher {
	if !o.FastHash {
		return nil
	}
	return NewXorHasher(skews, Log2(sets), o.Seed)
}

// Log2 is the base-2 logarithm of n, a power of two the caller has
// already validated (set counts are checked by every constructor).
func Log2(n int) uint {
	return uint(bits.TrailingZeros(uint(n)))
}

// Factory constructs a design from build options. Factories return an
// error wrapping ErrBadConfig for invalid options rather than panicking.
type Factory func(BuildOptions) (LLC, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named design factory. Designs self-register from init
// functions in their own packages, so adding a design never edits a sweep
// site; a duplicate or empty name panics (programmer error at init time).
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("cachemodel: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cachemodel: design %q registered twice", name))
	}
	registry[name] = f
}

// Build constructs the named design. Unknown names and invalid options
// return errors wrapping ErrBadConfig.
func Build(name string, o BuildOptions) (LLC, error) {
	registryMu.RLock()
	f := registry[name]
	registryMu.RUnlock()
	if f == nil {
		return nil, BadConfigf("cachemodel: unknown design %q (registered: %v)", name, Registered())
	}
	return f(o)
}

// Registered returns the sorted names of all registered designs.
func Registered() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	//mayavet:ignore maporder -- names are sorted immediately below
	for n := range registry {
		names = append(names, n)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}
