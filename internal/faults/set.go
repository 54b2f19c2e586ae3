package faults

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mayacache/internal/harness"
)

// Site is a point in a cell's life where a runtime consults its faults.
type Site uint8

// The fault sites. The sweep harness, the fleet worker, and the session
// server share the first three through harness.RunAttempt; only the
// fleet worker has the RPC site.
const (
	// PreRun is before every attempt, inside its panic recovery and
	// under its deadline: panic, error, transient, slowtenant.
	PreRun Site = 1 << iota
	// PreSave is before every durable cell-state save: snapfail.
	PreSave
	// Save is after every durable cell-state save: killsnap, distkill.
	Save
	// RPC is around the fleet worker's cell-scoped RPCs: distdrop,
	// distdelay.
	RPC
)

// kinds maps every fault kind to the site it fires at.
var kinds = map[string]Site{
	"panic": PreRun, "error": PreRun, "transient": PreRun, "slowtenant": PreRun,
	"snapfail": PreSave, "killsnap": Save, "distkill": Save,
	"distdrop": RPC, "distdelay": RPC,
}

// Set is a parsed list of fault specifications. It implements the fault
// interfaces of harness.Attempt and dist.WorkerOptions, so every runtime
// consults the same value at the sites it has. Faults keep their state
// (kills fired, RPCs dropped, attempts failed) in the Set, so runtimes
// sharing one Set share it: a distkill kills whichever fleet worker
// reaches the trigger first, exactly once. The empty Set injects nothing.
type Set []*fault

type fault struct {
	spec  string
	kind  string
	site  Site
	match string        // cell-key substring; the tenant for slowtenant
	n     int           // attempts, save ordinal, or RPC count
	d     time.Duration // stall

	mu    sync.Mutex
	used  int            // kills fired or RPCs dropped
	tries map[string]int // transient: failed attempts per cell key
}

// Parse compiles fault specifications of the form kind:<match>[:<arg>]:
//
//	panic:<substr>            panic in every attempt of a cell whose key
//	                          contains substr
//	error:<substr>            fail matching cells (not retryable)
//	transient:<substr>[:<k>]  fail the first k (default 1) attempts of
//	                          each matching cell with a retryable error
//	slowtenant:<tenant>:<d>   stall every attempt whose key has tenant as
//	                          a whole |-separated field by d; the stall
//	                          spends the attempt's deadline
//	snapfail:<substr>:<n>     fail the n-th durable save of matching cells
//	killsnap:<substr>:<n>     kill the process at the first durable save
//	                          numbered n or later of a matching cell, once
//	distkill:<substr>:<n>     the same fault under the fleet's name
//	distdrop:<substr>:<n>     blackhole the first n cell-scoped RPCs of
//	                          matching cells
//	distdelay:<substr>:<d>    stall every heartbeat of matching cells by d
func Parse(specs []string) (Set, error) {
	var s Set
	for _, spec := range specs {
		kind, rest, _ := strings.Cut(spec, ":")
		match, arg, hasArg := strings.Cut(rest, ":")
		if match == "" {
			return nil, fmt.Errorf("faults: bad spec %q (want kind:<match>[:<arg>])", spec)
		}
		site, known := kinds[kind]
		if !known {
			return nil, fmt.Errorf("faults: unknown fault kind %q in %q (want panic, error, transient, slowtenant, snapfail, killsnap, distkill, distdrop, or distdelay)", kind, spec)
		}
		f := &fault{spec: spec, kind: kind, site: site, match: match}
		var err error
		switch kind {
		case "panic", "error":
			if hasArg {
				err = fmt.Errorf("faults: bad spec %q (%s takes no argument)", spec, kind)
			}
		case "transient":
			f.n, f.tries = 1, map[string]int{}
			if hasArg {
				f.n, err = positiveInt(spec, arg)
			}
		case "snapfail", "killsnap", "distkill", "distdrop":
			f.n, err = positiveInt(spec, arg)
		case "slowtenant", "distdelay":
			f.d, err = time.ParseDuration(arg)
			if err != nil || f.d <= 0 {
				err = fmt.Errorf("faults: bad spec %q (want a positive duration, got %q)", spec, arg)
			}
		}
		if err != nil {
			return nil, err
		}
		s = append(s, f)
	}
	return s, nil
}

func positiveInt(spec, arg string) (int, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("faults: bad spec %q (want a positive integer, got %q)", spec, arg)
	}
	return n, nil
}

// Within returns an error naming the first fault whose site is not among
// sites — how a CLI rejects a fault its runtime could never fire.
func (s Set) Within(sites Site) error {
	for _, f := range s {
		if f.site&sites == 0 {
			return fmt.Errorf("faults: this runtime has no site where %s could fire", f.spec)
		}
	}
	return nil
}

// take consumes one firing of a fault that fires at most limit times.
func (f *fault) take(limit int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.used >= limit {
		return false
	}
	f.used++
	return true
}

// PreRun is the pre-run site: it panics, fails, or stalls (until ctx
// ends) as the faults matching key dictate.
func (s Set) PreRun(ctx context.Context, key string) error {
	for _, f := range s {
		switch {
		case f.kind == "slowtenant":
			if slices.Contains(strings.Split(key, "|"), f.match) {
				harness.Sleep(ctx, f.d)
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		case !strings.Contains(key, f.match):
			// not this cell
		case f.kind == "panic":
			panic(fmt.Errorf("%w: cell %s", ErrInjected, key))
		case f.kind == "error":
			return fmt.Errorf("%w: cell %s", ErrInjected, key)
		case f.kind == "transient":
			f.mu.Lock()
			tries := f.tries[key]
			if tries < f.n {
				f.tries[key]++
			}
			f.mu.Unlock()
			if tries < f.n {
				return harness.Transient(fmt.Errorf("%w: cell %s attempt %d", ErrInjected, key, tries+1))
			}
		}
	}
	return nil
}

// PreSave is the pre-save site: snapfail fails exactly the configured
// save ordinal (1-based) of a matching cell. The failed run never reaches
// later ordinals in this process, and a restarted one re-injects at the
// same point.
func (s Set) PreSave(key string, saves int) error {
	for _, f := range s {
		if f.kind == "snapfail" && saves == f.n && strings.Contains(key, f.match) {
			return fmt.Errorf("%w: snapshot write %d of %s failed", ErrInjected, saves, key)
		}
	}
	return nil
}

// OnSave is the save site: it reports whether a kill fault fires on this
// durable save of the cell, true at most once per fault. The runtime
// then kills itself — SIGKILL, with no unwind, modelling a machine lost
// mid-ROI that must recover from exactly what was already durable.
func (s Set) OnSave(key string, saves int) bool {
	for _, f := range s {
		if f.site == Save && saves >= f.n && strings.Contains(key, f.match) && f.take(1) {
			return true
		}
	}
	return false
}

// Drop is the RPC site's partition: it reports whether a cell-scoped RPC
// for key is blackholed (neither reaches the coordinator nor returns).
func (s Set) Drop(key string) bool {
	for _, f := range s {
		if f.kind == "distdrop" && strings.Contains(key, f.match) && f.take(f.n) {
			return true
		}
	}
	return false
}

// HeartbeatDelay is the RPC site's stall: the longest delay any distdelay
// fault imposes on a heartbeat for key.
func (s Set) HeartbeatDelay(key string) time.Duration {
	var d time.Duration
	for _, f := range s {
		if f.kind == "distdelay" && strings.Contains(key, f.match) && f.d > d {
			d = f.d
		}
	}
	return d
}
