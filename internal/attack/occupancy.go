package attack

import (
	"fmt"
	"math"
	"math/big"

	"mayacache/internal/cachemodel"
	"mayacache/internal/metrics"
	"mayacache/internal/rng"
)

// Victim is a process whose per-"encryption" cache footprint depends on a
// secret. Run performs one operation, issuing its table accesses through
// the cache bound at construction.
type Victim interface {
	Run()
	Name() string
}

// CacheToucher adapts a cachemodel.LLC into a trace callback for the
// victims in this package.
func CacheToucher(c cachemodel.LLC, sdid uint8) func(line uint64) {
	return func(line uint64) {
		c.Access(cachemodel.Access{Line: line, Type: cachemodel.Read, SDID: sdid})
	}
}

// AESVictim runs AES encryptions over a per-key plaintext pool. The pool
// (derived deterministically from the key) gives each key a distinct
// reuse profile at the cache, which is what the Fig 8 occupancy attacker
// tries to distinguish — mirroring the paper's "two different keys, each
// having different reuse profiles".
type AESVictim struct {
	aes  *AES
	pool [][16]byte
	next int
	name string
}

// NewAESVictim builds the victim. poolSize plaintexts are derived from the
// key via splitmix64.
func NewAESVictim(key [16]byte, tableBase uint64, poolSize int, trace func(uint64)) *AESVictim {
	if poolSize <= 0 {
		poolSize = 16
	}
	v := &AESVictim{
		aes:  NewAES(key, tableBase, trace),
		name: fmt.Sprintf("aes-%02x%02x", key[0], key[1]),
	}
	seed := uint64(0)
	for _, b := range key {
		seed = seed<<8 | uint64(b)
	}
	for i := 0; i < poolSize; i++ {
		var pt [16]byte
		for j := 0; j < 16; j += 8 {
			x := rng.SplitMix64(&seed)
			for k := 0; k < 8; k++ {
				pt[j+k] = byte(x >> (8 * uint(k)))
			}
		}
		v.pool = append(v.pool, pt)
	}
	return v
}

// Run implements Victim: encrypt the next pool plaintext.
func (v *AESVictim) Run() {
	v.aes.Encrypt(v.pool[v.next])
	v.next = (v.next + 1) % len(v.pool)
}

// Name implements Victim.
func (v *AESVictim) Name() string { return v.name }

// MeanDistinctLines returns the mean number of distinct table lines an
// AES key touches per encryption over its plaintext pool — its cache
// "reuse profile".
func MeanDistinctLines(key [16]byte, poolSize int) float64 {
	var count int
	seen := map[uint64]bool{}
	v := NewAESVictim(key, 0, poolSize, func(l uint64) { seen[l] = true })
	total := 0
	for i := 0; i < poolSize; i++ {
		for k := range seen {
			delete(seen, k)
		}
		v.Run()
		total += len(seen)
	}
	count = total
	return float64(count) / float64(poolSize)
}

// FindContrastingAESKeys searches candidate keys for the pair with the
// most different reuse profiles, mirroring the paper's deliberately chosen
// "two different keys, each having different reuse profiles at the LLC".
func FindContrastingAESKeys(candidates, poolSize int, seed uint64) ([16]byte, [16]byte) {
	if candidates < 2 {
		candidates = 2
	}
	sm := seed ^ 0xae5
	type cand struct {
		key  [16]byte
		mean float64
	}
	lowest, highest := cand{mean: math.Inf(1)}, cand{mean: math.Inf(-1)}
	for i := 0; i < candidates; i++ {
		var key [16]byte
		for j := 0; j < 16; j += 8 {
			x := rng.SplitMix64(&sm)
			for k := 0; k < 8; k++ {
				key[j+k] = byte(x >> (8 * uint(k)))
			}
		}
		m := MeanDistinctLines(key, poolSize)
		if m < lowest.mean {
			lowest = cand{key, m}
		}
		if m > highest.mean {
			highest = cand{key, m}
		}
	}
	return lowest.key, highest.key
}

// ModExpVictim performs fixed-window modular exponentiations with a fixed
// secret exponent — the Fig 8 "modular exponentiation" victim.
type ModExpVictim struct {
	m    *ModExp
	exp  *big.Int
	name string
}

// NewModExpVictim derives a deterministic pseudo-random expBits-bit
// exponent from keySeed over RSA-2048-style operands: the modulus is 2048
// bits, so each window-table entry spans four cache lines and the set of
// windows a key uses translates directly into its cache footprint.
func NewModExpVictim(keySeed uint64, expBits int, tableBase uint64, trace func(uint64)) *ModExpVictim {
	if expBits < 8 {
		expBits = 8
	}
	const modBits = 2048
	sm := keySeed
	randBig := func(bits int) *big.Int {
		words := (bits + 63) / 64
		x := new(big.Int)
		for i := 0; i < words; i++ {
			x.Lsh(x, 64)
			x.Or(x, new(big.Int).SetUint64(rng.SplitMix64(&sm)))
		}
		x.SetBit(x, bits-1, 1) // full bit length
		return x
	}
	exp := randBig(expBits)
	mod := randBig(modBits)
	mod.SetBit(mod, 0, 1) // odd modulus
	g := big.NewInt(3)
	entryLines := modBits / 512 // one 64B line per 512 operand bits
	return &ModExpVictim{
		m:    NewModExp(g, mod, tableBase, entryLines, trace),
		exp:  exp,
		name: fmt.Sprintf("modexp-%x", keySeed),
	}
}

// Run implements Victim: one full exponentiation with the secret exponent.
func (v *ModExpVictim) Run() { v.m.Exp(v.exp) }

// Name implements Victim.
func (v *ModExpVictim) Name() string { return v.name }

// Occupancy is the cacheFX-style LLC occupancy attacker: it keeps the
// cache full of its own lines, lets the victim run one operation, then
// probes its lines and counts misses — the victim's cache footprint.
type Occupancy struct {
	cache     cachemodel.LLC
	lines     []uint64
	sdid      uint8
	noise     int
	noiseBase uint64
	noiseSpan uint64
	r         *rng.Rand
}

// OccupancyConfig parameterizes the attacker.
type OccupancyConfig struct {
	// Cache is the design under attack.
	Cache cachemodel.LLC
	// OccupancyLines is the size of the attacker's priming set, normally
	// the cache's data capacity.
	OccupancyLines int
	// SDID is the attacker's security domain.
	SDID uint8
	// NoiseLines is the number of random background accesses injected
	// per sample (system activity; identical across designs).
	NoiseLines int
	// Seed drives noise and placement.
	Seed uint64
}

// NewOccupancy builds the attacker and primes the cache. For designs with
// reuse-based filling (Maya), priming runs twice so the attacker's lines
// earn data entries.
func NewOccupancy(cfg OccupancyConfig) *Occupancy {
	if cfg.Cache == nil || cfg.OccupancyLines <= 0 {
		panic("attack: invalid occupancy config")
	}
	o := &Occupancy{
		cache:     cfg.Cache,
		sdid:      cfg.SDID,
		noise:     cfg.NoiseLines,
		noiseBase: 1 << 30,
		noiseSpan: 1 << 16,
		r:         rng.New(cfg.Seed ^ 0x0cc),
	}
	base := uint64(1) << 28
	for i := 0; i < cfg.OccupancyLines; i++ {
		o.lines = append(o.lines, base+uint64(i))
	}
	o.Prime()
	o.Prime()
	return o
}

// Prime touches every attacker line in blocks, each block twice. The
// double pass at short reuse distance is what defeats Maya's reuse
// filter: a plain linear sweep leaves the attacker as priority-0 tags
// whose reuse window expires before the second pass, so its lines would
// never earn data entries. Block-wise priming is a no-op difference for
// the other designs.
func (o *Occupancy) Prime() {
	const block = 128
	for start := 0; start < len(o.lines); start += block {
		end := start + block
		if end > len(o.lines) {
			end = len(o.lines)
		}
		for pass := 0; pass < 2; pass++ {
			for _, l := range o.lines[start:end] {
				o.cache.Access(cachemodel.Access{Line: l, Type: cachemodel.Read, SDID: o.sdid})
			}
		}
	}
}

// Sample runs one victim operation between noise injections and returns
// the number of attacker-line misses observed by the probe (which also
// re-primes for the next sample).
func (o *Occupancy) Sample(v Victim) int {
	v.Run()
	for i := 0; i < o.noise; i++ {
		l := o.noiseBase + o.r.Uint64n(o.noiseSpan)
		o.cache.Access(cachemodel.Access{Line: l, Type: cachemodel.Read, SDID: 255})
	}
	misses := 0
	for _, l := range o.lines {
		res := o.cache.Access(cachemodel.Access{Line: l, Type: cachemodel.Read, SDID: o.sdid})
		if !res.DataHit {
			misses++
		}
	}
	return misses
}

// Distinguish returns the number of encryptions (samples per victim)
// needed before Welch's t-statistic between the two victims' occupancy
// traces exceeds threshold, or maxSamples if it never does. Samples
// alternate between victims so cache-state drift affects both equally.
func (o *Occupancy) Distinguish(a, b Victim, threshold float64, maxSamples int) int {
	var sa, sb []float64
	const checkEvery = 8
	for n := 1; n <= maxSamples; n++ {
		sa = append(sa, float64(o.Sample(a)))
		sb = append(sb, float64(o.Sample(b)))
		if n%checkEvery == 0 || n == maxSamples {
			if t := metrics.WelchT(sa, sb); math.Abs(t) > threshold || math.IsInf(t, 0) && meanDiffers(sa, sb) {
				return n
			}
		}
	}
	return maxSamples
}

// meanDiffers guards the zero-variance degenerate case: infinite t only
// counts when the means actually differ.
func meanDiffers(a, b []float64) bool {
	return metrics.Mean(a) != metrics.Mean(b)
}
