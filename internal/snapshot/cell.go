package snapshot

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"sync"
)

// A harness cell is one simulation. Cell is its durable mid-run state:
// at most one in-progress System snapshot, written atomically on the
// cell's save cadence and deadline trigger. A completed simulation's
// value lives only in the sweep checkpoint (or the fleet's and session
// service's records), and the cell file is discarded.
const cellKind = "mayasim/cell/v1"

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

// Cell is the mid-run resume state for one harness cell. Methods are
// safe for concurrent use.
type Cell struct {
	spec CellSpec
	key  string
	// state is what the file held when the cell was opened: the point a
	// run resumes from. Saves go to the file only, so a running cell
	// keeps no copy of the state it last wrote.
	state []byte

	mu    sync.Mutex
	saves int
	// buf holds the file image of the last save and is reused by the
	// next, so once the first save has sized it a save allocates nothing
	// to encode. A save takes it out under mu, so the System's encoding
	// runs unlocked, and puts it back before writing the file.
	buf Encoder
}

// OpenCell opens (or creates, in memory) the cell state for key. A
// missing file yields an empty cell; an unreadable, corrupt, or foreign
// file yields a structured error so the sweep fails loudly instead of
// silently recomputing or resuming the wrong state.
func OpenCell(spec CellSpec, key string) (*Cell, error) {
	c := &Cell{spec: spec, key: key}
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
	c.state = snap.Section("system")
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

// SystemState returns the System snapshot the cell file held when it was
// opened, or nil for a cell with no saved state.
func (c *Cell) SystemState() []byte { return c.state }

// SaveSystem durably records a new in-progress snapshot, replacing any
// previous one, then invokes the OnSave hook. system appends one System
// container to the Encoder it is given: the cell's own buffer, in which
// that container is the payload of the file's system section, so the
// state is encoded once, in place, and the buffer's bytes are reused by
// the next save.
func (c *Cell) SaveSystem(system func(*Encoder) error) error {
	if c.spec.PreSave != nil {
		c.mu.Lock()
		next := c.saves + 1
		c.mu.Unlock()
		if err := c.spec.PreSave(next); err != nil {
			return err
		}
	}
	c.mu.Lock()
	buf := c.buf
	c.buf = Encoder{} // a concurrent save encodes into a buffer of its own
	c.mu.Unlock()
	data, err := c.image(&buf, system)
	c.mu.Lock()
	c.buf = buf
	if err == nil {
		err = WriteFileAtomic(c.spec.Path, data, 0o644)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.saves++
	saves := c.saves
	c.mu.Unlock()
	if c.spec.OnSave != nil {
		c.spec.OnSave(saves)
	}
	return nil
}

// image replaces e's contents with the cell file's container, whose
// system section is the System container system writes, and returns it.
func (c *Cell) image(e *Encoder, system func(*Encoder) error) ([]byte, error) {
	e.b = e.b[:0]
	w := NewWriter(e, Header{Kind: cellKind, CellKey: c.key})
	w.Section("system")
	if err := system(e); err != nil {
		return nil, err
	}
	w.End()
	return e.b, nil
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
