// Package faults provides deterministic fault injection for the
// experiment runtimes. Its purpose is to prove properties of the
// surrounding machinery rather than to model hardware faults faithfully:
//
//  1. every runtime isolates failures — a corrupted or panicking cell
//     becomes one structured failure while sibling cells complete;
//  2. crash recovery is exact — a process killed mid-ROI resumes from
//     what was durable and produces byte-identical results; and
//  3. the mayacheck invariant audits actually fire under corruption —
//     a flipped tag-store bit in the Maya cache is caught by Audit, not
//     silently folded into the simulated eviction distribution (the
//     failure mode behind the Mirage broken/refuted exchange).
//
// The CLIs' -fault specifications compile through Parse into one Set,
// which the sweep harness, the fleet worker, and the session server each
// consult at the sites they have (see Site).
//
// Every injector is deterministic: faults fire at fixed event indices,
// save ordinals or attempt counts, or are selected by a seeded
// internal/rng stream, so a failing fault-injection run reproduces
// bit-for-bit.
package faults

import (
	"errors"
	"fmt"
	"sync"

	"mayacache/internal/harness"
	"mayacache/internal/rng"
	"mayacache/internal/trace"
)

// ErrInjected is the sentinel all injected faults wrap; tests distinguish
// injected failures from genuine ones with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// PanicAfter wraps a trace generator so that producing event n (0-based)
// panics with an error wrapping ErrInjected. It models a hard trace
// corruption that the simulator cannot survive: the harness must convert
// it into a RunError confined to the one cell replaying this stream.
func PanicAfter(g trace.Generator, n int) trace.Generator {
	return &panicGen{g: g, at: n}
}

type panicGen struct {
	g    trace.Generator
	at   int
	seen int
}

func (p *panicGen) Next() trace.Event {
	if p.seen == p.at {
		panic(fmt.Errorf("%w: trace %q corrupt at event %d", ErrInjected, p.g.Name(), p.at))
	}
	p.seen++
	return p.g.Next()
}

func (p *panicGen) Name() string { return p.g.Name() }

// CorruptLine wraps a trace generator, XOR-ing xor into the line address
// of every event from index n on — silent data corruption that does not
// crash anything but perturbs the simulated address stream (the class of
// error only determinism checks or invariant audits can surface).
func CorruptLine(g trace.Generator, n int, xor uint64) trace.Generator {
	return &corruptGen{g: g, from: n, xor: xor}
}

type corruptGen struct {
	g    trace.Generator
	from int
	xor  uint64
	seen int
}

func (c *corruptGen) Next() trace.Event {
	e := c.g.Next()
	if c.seen >= c.from {
		e.Line ^= c.xor
	}
	c.seen++
	return e
}

func (c *corruptGen) Name() string { return c.g.Name() }

// Countdown is a transient fault shared across retry attempts of a cell:
// Fire returns a harness.Transient error wrapping ErrInjected for the
// first k calls, then nil forever. It is safe for concurrent use.
type Countdown struct {
	mu        sync.Mutex
	remaining int
	site      string
}

// NewCountdown builds a countdown that fails the first k firings at the
// named site.
func NewCountdown(site string, k int) *Countdown {
	return &Countdown{remaining: k, site: site}
}

// Fire consumes one firing: an injected transient error while the
// countdown lasts, nil after.
func (c *Countdown) Fire() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return nil
	}
	c.remaining--
	return harness.Transient(fmt.Errorf("%w: transient failure at %s (%d left)", ErrInjected, c.site, c.remaining))
}

// FailingRand wraps an internal/rng stream so the draw at index n (and
// only that draw) panics with an ErrInjected-wrapped error — a failing
// RNG draw for components that consume seeded randomness.
type FailingRand struct {
	R     *rng.Rand
	At    uint64
	drawn uint64
}

// Uint64 forwards to the wrapped stream, panicking on draw At.
func (f *FailingRand) Uint64() uint64 {
	if f.drawn == f.At {
		panic(fmt.Errorf("%w: rng draw %d failed", ErrInjected, f.At))
	}
	f.drawn++
	return f.R.Uint64()
}

// TagCorrupter is implemented by cache designs that expose a fault hook
// for flipping tag-store bits (core.Maya under -tags mayacheck). The
// method must corrupt internal state in a way the design's Audit is
// expected to detect, and return a description of what was flipped.
type TagCorrupter interface {
	CorruptTagBit(index int, bit uint) string
}

// FlipTagBit flips one tag-store bit of llc through its fault hook. It
// reports false when the design exposes no hook (release builds compile
// the hook out, so fault-injection audit tests are mayacheck-only).
func FlipTagBit(llc any, index int, bit uint) (string, bool) {
	c, ok := llc.(TagCorrupter)
	if !ok {
		return "", false
	}
	return c.CorruptTagBit(index, bit), true
}

// Plan selects fault sites deterministically: Fire(site, i) reports
// whether the i-th opportunity at the named site should fault, drawing
// from a stream keyed by (seed, site) so adding sites does not perturb
// existing ones.
type Plan struct {
	seed uint64
	prob float64
}

// NewPlan builds a plan that fires with probability prob at each
// opportunity.
func NewPlan(seed uint64, prob float64) *Plan {
	return &Plan{seed: seed, prob: prob}
}

// Fire reports whether opportunity i at site should fault.
func (p *Plan) Fire(site string, i uint64) bool {
	h := p.seed
	for _, b := range []byte(site) {
		h = rng.Mix64(h ^ uint64(b))
	}
	r := rng.New(rng.Mix64(h ^ i))
	return r.Float64() < p.prob
}
