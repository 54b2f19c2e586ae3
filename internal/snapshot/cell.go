package snapshot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"sort"
	"sync"
)

// A sweep cell (one harness work unit) typically runs several sequential
// simulator sub-runs: the shared mix plus per-core alone runs, or a
// baseline phase feeding a scaled phase. Cell is the durable mid-cell
// state for one such unit: the JSON results of every completed sub-run,
// plus at most one in-progress System snapshot. On resume, completed
// sub-runs are served from the recorded JSON (Go's encoding/json
// round-trips float64 exactly, so downstream arithmetic is bit-identical)
// and the in-progress sub-run restores and continues mid-ROI.
const (
	cellKind      = "mayasim/cell/v1"
	maxCellSubs   = 4096
	maxSubName    = 1024
	maxResultJSON = 1 << 24
)

// CellSpec configures a Cell.
type CellSpec struct {
	// Path is the cell's snapshot file.
	Path string
	// Every is the auto-snapshot cadence in simulator steps (0 disables
	// periodic snapshots; deadline snapshots still fire on Trigger).
	Every uint64
	// Trigger, when fired, makes the running System save and stop.
	Trigger *Trigger
	// OnSave, if set, runs after every durable snapshot write with the
	// cumulative save count — the hook the kill-mid-ROI fault injector
	// uses to die at a deterministic point.
	OnSave func(saves int)
	// PreSave, if set, runs before every durable snapshot write with the
	// ordinal of the save about to happen (1 for the first). A non-nil
	// error aborts the save and is returned from SaveSystem — the hook
	// the snapshot-write-error fault injector uses to simulate a failing
	// disk at a deterministic point.
	PreSave func(saves int) error
}

// Cell is the mid-cell resume state for one sweep cell. Methods are safe
// for concurrent use, though a cell's sub-runs execute sequentially.
type Cell struct {
	spec CellSpec
	key  string

	mu       sync.Mutex
	results  map[string]json.RawMessage
	order    []string // result insertion/decode order; persisted sorted
	curSub   string
	curState []byte
	saves    int
}

// OpenCell opens (or creates, in memory) the cell state for key. A
// missing file yields an empty cell; an unreadable, corrupt, or foreign
// file yields a structured error so the sweep fails loudly instead of
// silently recomputing or resuming the wrong state.
func OpenCell(spec CellSpec, key string) (*Cell, error) {
	c := &Cell{spec: spec, key: key, results: make(map[string]json.RawMessage)}
	data, err := os.ReadFile(spec.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: open cell: %w", err)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Path, err)
	}
	if snap.Header.Kind != cellKind {
		return nil, &MismatchError{Field: "kind", Want: cellKind, Got: snap.Header.Kind}
	}
	if snap.Header.CellKey != key {
		return nil, &MismatchError{Field: "cell key", Want: key, Got: snap.Header.CellKey}
	}
	if sec := snap.Section("results"); sec != nil {
		d := NewDecoder(sec)
		n := d.Count(maxCellSubs)
		for i := 0; i < n; i++ {
			name := d.Str(maxSubName)
			js := d.Bytes(maxResultJSON)
			if d.Err() != nil {
				break
			}
			if !json.Valid(js) {
				return nil, &CorruptError{At: "cell result " + name, Detail: "invalid JSON"}
			}
			if _, dup := c.results[name]; dup {
				return nil, &CorruptError{At: "cell result " + name, Detail: "duplicate sub-run"}
			}
			c.results[name] = json.RawMessage(js)
			c.order = append(c.order, name)
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Path, err)
		}
	}
	if sec := snap.Section("subrun"); sec != nil {
		d := NewDecoder(sec)
		c.curSub = d.Str(maxSubName)
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Path, err)
		}
		c.curState = snap.Section("system")
		if c.curState == nil {
			return nil, &CorruptError{At: "cell", Detail: "subrun section without system section"}
		}
	}
	return c, nil
}

// Key returns the sweep cell key this state belongs to.
func (c *Cell) Key() string { return c.key }

// Path returns the cell's snapshot file path.
func (c *Cell) Path() string { return c.spec.Path }

// Every returns the periodic snapshot cadence in steps.
func (c *Cell) Every() uint64 { return c.spec.Every }

// Trigger returns the deadline trigger (may be nil).
func (c *Cell) Trigger() *Trigger { return c.spec.Trigger }

// Saves returns the number of durable state saves this Cell has written
// since it was opened (resume-from-file does not carry the count over:
// it is per-process, matching what the OnSave hook observed). The
// distributed fabric uses it for resumed-iteration accounting — proving
// a killed worker cost at most one snapshot interval.
func (c *Cell) Saves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

// LookupResult reports whether sub completed previously and, if so,
// unmarshals its recorded result into v.
func (c *Cell) LookupResult(sub string, v any) (bool, error) {
	c.mu.Lock()
	js, ok := c.results[sub]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(js, v); err != nil {
		return false, fmt.Errorf("snapshot: cell result %q: %w", sub, err)
	}
	return true, nil
}

// RecordResult durably records sub's result and drops any in-progress
// System state for it.
func (c *Cell) RecordResult(sub string, v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("snapshot: cell result %q: %w", sub, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.results[sub]; !dup {
		c.order = append(c.order, sub)
	}
	c.results[sub] = js
	if c.curSub == sub {
		c.curSub, c.curState = "", nil
	}
	return c.persistLocked()
}

// SystemState returns the in-progress System snapshot bytes for sub, or
// nil if none.
func (c *Cell) SystemState(sub string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.curSub != sub {
		return nil
	}
	return c.curState
}

// SaveSystem durably records state as the in-progress snapshot of sub,
// replacing any previous one, then invokes the OnSave hook.
func (c *Cell) SaveSystem(sub string, state []byte) error {
	if c.spec.PreSave != nil {
		c.mu.Lock()
		next := c.saves + 1
		c.mu.Unlock()
		if err := c.spec.PreSave(next); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.curSub, c.curState = sub, state
	err := c.persistLocked()
	saves := c.saves
	if err == nil {
		c.saves++
		saves = c.saves
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if c.spec.OnSave != nil {
		c.spec.OnSave(saves)
	}
	return nil
}

// persistLocked writes the cell file atomically. Results are persisted in
// sorted sub-run order so identical cell states produce identical bytes.
func (c *Cell) persistLocked() error {
	snap := NewSnapshot(Header{Kind: cellKind, CellKey: c.key})
	names := append([]string(nil), c.order...)
	sort.Strings(names)
	var e Encoder
	e.Count(len(names))
	for _, name := range names {
		e.Str(name)
		e.Bytes(c.results[name])
	}
	snap.Add("results", e.Data())
	if c.curSub != "" {
		var se Encoder
		se.Str(c.curSub)
		snap.Add("subrun", se.Data())
		snap.Add("system", c.curState)
	}
	return WriteFileAtomic(c.spec.Path, snap.Encode(), 0o644)
}

// Discard removes the cell file; called when the cell's value has been
// recorded in the sweep checkpoint and the mid-cell state is obsolete.
func (c *Cell) Discard() error {
	err := os.Remove(c.spec.Path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// CellFileName derives a stable, filesystem-safe file name for a cell key:
// a sanitized prefix for humans plus an FNV-1a hash for uniqueness.
func CellFileName(key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // fnv.Write never fails
	safe := make([]byte, 0, len(key))
	for i := 0; i < len(key) && len(safe) < 64; i++ {
		b := key[i]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '-', b == '_':
			safe = append(safe, b)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("cell-%s-%016x.snap", safe, h.Sum64())
}

type cellCtxKey struct{}

// WithCell attaches a Cell to ctx for the experiment layer to find.
func WithCell(ctx context.Context, c *Cell) context.Context {
	return context.WithValue(ctx, cellCtxKey{}, c)
}

// CellFrom returns the Cell attached to ctx, or nil.
func CellFrom(ctx context.Context) *Cell {
	c, _ := ctx.Value(cellCtxKey{}).(*Cell)
	return c
}
