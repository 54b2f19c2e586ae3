package cachemodel

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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

// BuildOptions scales a design row to a system. The zero value plus
// Cores >= 1 builds every row at its paper geometry.
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
}

// Log2 is the base-2 logarithm of n, a power of two the caller has
// already validated (set counts are checked by every constructor).
func Log2(n int) uint {
	return uint(bits.TrailingZeros(uint(n)))
}

// Family names the package that builds a design row. Each family
// package links its Builder from init, so a binary can build a row only
// if it imports the row's family.
type Family string

// The design families.
const (
	FamilyBaseline Family = "baseline" // internal/baseline
	FamilyCEASER   Family = "ceaser"   // internal/ceaser
	FamilyMirage   Family = "mirage"   // internal/mirage
	FamilyMaya     Family = "maya"     // internal/core
)

// Row declares one design: its name, the family that builds it and its
// tag geometry per skew. The simulated LLC, the storage accounting
// (internal/power), the Birth-Death security model (internal/analytic),
// the bucket-and-balls model (internal/buckets) and the drivers' tables
// all derive from the row, so a design variant is one row.
type Row struct {
	// Name is the registry name and every table's label for the design.
	Name   string
	Family Family
	// Skews is the number of tag-store skews (1 for set-associative).
	Skews int
	// BaseWays per skew size the data store: Skews x sets x BaseWays.
	BaseWays int
	// ReuseWays per skew bound Maya's tag-only priority-0 population.
	ReuseWays int
	// InvalidWays per skew are the tags held free to absorb load
	// imbalance: Maya's invalid ways, Mirage's extra ways.
	InvalidWays int
}

// The design table, one row per registered design. Maya-ISO grows Maya's
// data store to Mirage's; Mirage-Lite gives up one extra way per skew.
var (
	Baseline     = Row{Name: "Baseline", Family: FamilyBaseline, Skews: 1, BaseWays: 16}
	CEASER       = Row{Name: "CEASER", Family: FamilyCEASER, Skews: 1, BaseWays: 16}
	CEASERS      = Row{Name: "CEASER-S", Family: FamilyCEASER, Skews: 2, BaseWays: 8}
	ScatterCache = Row{Name: "ScatterCache", Family: FamilyCEASER, Skews: 16, BaseWays: 1}
	Mirage       = Row{Name: "Mirage", Family: FamilyMirage, Skews: 2, BaseWays: 8, InvalidWays: 6}
	MirageLite   = Row{Name: "Mirage-Lite", Family: FamilyMirage, Skews: 2, BaseWays: 8, InvalidWays: 5}
	Maya         = Row{Name: "Maya", Family: FamilyMaya, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6}
	MayaISO      = Row{Name: "Maya-ISO", Family: FamilyMaya, Skews: 2, BaseWays: 8, ReuseWays: 4, InvalidWays: 6}

	designs = []Row{Baseline, CEASER, CEASERS, ScatterCache, Mirage, MirageLite, Maya, MayaISO}
)

// String returns the row's name.
func (r Row) String() string { return r.Name }

// Ways is the tag ways per skew per set.
func (r Row) Ways() int { return r.BaseWays + r.ReuseWays + r.InvalidWays }

// TagEntries is the tag-store size at setsPerSkew sets per skew.
func (r Row) TagEntries(setsPerSkew int) int { return r.Skews * setsPerSkew * r.Ways() }

// DataEntries is the data-store size at setsPerSkew sets per skew.
func (r Row) DataEntries(setsPerSkew int) int { return r.Skews * setsPerSkew * r.BaseWays }

// Decoupled reports whether the row's tag and data stores are linked by
// FPTR/RPTR pointers, as in the Maya and Mirage families, rather than by
// position.
func (r Row) Decoupled() bool { return r.Family == FamilyMaya || r.Family == FamilyMirage }

// A Builder constructs row r's design at setsPerSkew sets per skew,
// seeded by seed and indexed by h (nil selects the design's own index
// function). It returns an error wrapping ErrBadConfig for a geometry the
// design cannot build.
type Builder func(r Row, setsPerSkew int, seed uint64, h IndexHasher) (LLC, error)

// builders holds each linked family's Builder. Only init functions write
// it, so reads need no lock.
var builders = map[Family]Builder{}

// LinkFamily installs family f's Builder. Each family package calls it
// once, from init.
func LinkFamily(f Family, b Builder) { builders[f] = b }

// Lookup returns the named design's row, or an error wrapping
// ErrBadConfig for a name the table does not hold.
func Lookup(name string) (Row, error) {
	for _, r := range designs {
		if r.Name == name {
			return r, nil
		}
	}
	return Row{}, BadConfigf("cachemodel: unknown design %q (registered: %v)", name, designs)
}

// Registered returns the design table's rows, in table order.
func Registered() []Row { return slices.Clone(designs) }

// Build constructs the named design. Unknown names and invalid options
// return errors wrapping ErrBadConfig.
func Build(name string, o BuildOptions) (LLC, error) {
	r, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return r.Build(o)
}

// Build constructs the row's design, scaled by o, through its family's
// Builder. Invalid options return errors wrapping ErrBadConfig.
func (r Row) Build(o BuildOptions) (LLC, error) {
	if o.Cores <= 0 {
		return nil, BadConfigf("cachemodel: Cores must be positive, got %d", o.Cores)
	}
	per := o.SetsPerCore
	if per == 0 {
		per = DefaultSetsPerCore
	}
	if per <= 0 || per&(per-1) != 0 {
		return nil, BadConfigf("cachemodel: SetsPerCore must be a positive power of two, got %d", per)
	}
	b := builders[r.Family]
	if b == nil {
		return nil, fmt.Errorf("cachemodel: design %q's family %s is not linked into this binary", r.Name, r.Family)
	}
	sets := per * o.Cores
	var h IndexHasher // nil: the design's PRINCE randomizer
	if o.FastHash {
		h = NewXorHasher(r.Skews, Log2(sets), o.Seed)
	}
	return b(r, sets, o.Seed, h)
}
