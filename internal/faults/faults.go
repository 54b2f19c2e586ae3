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
// Every injector is deterministic: faults fire at fixed attempt counts,
// save ordinals or RPC counts, so a failing fault-injection run
// reproduces bit-for-bit.
package faults

import "errors"

// ErrInjected is the sentinel all injected faults wrap; tests distinguish
// injected failures from genuine ones with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

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
