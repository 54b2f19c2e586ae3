package snapshot

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"runtime/debug"
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
	// uses to die at a deterministic point. It runs on the cell's writer
	// goroutine, off the drive loop, right after the write's rename. The
	// next SaveSystem, Wait, Saves and Discard wait for it to return, so
	// it must not call them.
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
//
// A save writes behind the simulation. SaveSystem encodes the state into
// the cell's one buffer on the caller's goroutine, starts one goroutine
// that writes the file and then runs the OnSave hook, and returns. At
// most one write is in flight: the next SaveSystem, Wait, Saves and
// Discard join it first.
type Cell struct {
	spec CellSpec
	key  string
	// state is what the file held when the cell was opened: the point a
	// run resumes from. Saves go to the file only, so a running cell
	// keeps no copy of the state it last wrote.
	state []byte

	// mu serializes saves and joins. A save holds it while it joins the
	// previous write (and so waits for that write's OnSave), runs PreSave,
	// encodes and starts its own write, which is why none of those hooks
	// may call a method that takes it.
	mu sync.Mutex
	// buf holds the file image of the last save and is reused by the
	// next. The first save allocates it once, at the bound on the image,
	// so no save regrows it and a save allocates nothing to encode. The
	// write in flight reads it, so nothing touches it before joining that
	// write.
	buf Encoder
	// writer counts the write in flight, 0 or 1. The writer sets saves
	// and err before it is done, so a joiner reads them after writer.Wait.
	writer sync.WaitGroup
	saves  int
	err    error
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

// Every returns the periodic snapshot cadence in steps.
func (c *Cell) Every() uint64 { return c.spec.Every }

// Trigger returns the deadline trigger (may be nil).
func (c *Cell) Trigger() *Trigger { return c.spec.Trigger }

// Saves returns the number of durable state saves this Cell has written
// since it was opened (resume-from-file does not carry the count over:
// it is per-process, matching what the OnSave hook observed). It joins
// the write in flight, so that write is counted, and leaves its error to
// Wait. The distributed fabric uses it for resumed-iteration accounting
// — proving a killed worker cost at most one snapshot interval.
func (c *Cell) Saves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writer.Wait()
	return c.saves
}

// SystemState returns the System snapshot the cell file held when it was
// opened, or nil for a cell with no saved state.
func (c *Cell) SystemState() []byte { return c.state }

// SaveSystem records a new in-progress snapshot, replacing any previous
// one, and writes it behind the caller. It joins the previous write
// first: if that write failed, SaveSystem returns its error and saves
// nothing. Then it runs PreSave and encodes. system appends one System
// container of at most bound bytes (the System's StateBound) to the
// Encoder it is given: the cell's own buffer, in which that container is
// the payload of the file's system section, so the state is encoded
// once, in place, and the buffer is reused by the next save. The first
// save sizes the buffer to the whole image's bound. Last it starts the
// writer goroutine, which writes the file atomically and then runs
// OnSave, and returns. The save is durable once a later join succeeds.
// Concurrent savers of one cell take turns.
func (c *Cell) SaveSystem(bound int, system func(*Encoder) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.join(); err != nil {
		return err
	}
	if c.spec.PreSave != nil {
		if err := c.spec.PreSave(c.saves + 1); err != nil {
			return err
		}
	}
	data, err := c.image(&c.buf, bound, system)
	if err != nil {
		return err
	}
	c.writer.Add(1)
	go c.write(data)
	return nil
}

// write is the writer goroutine: it replaces the cell file with data,
// counts the save and runs the OnSave hook. A panic in the hook becomes
// the write's error, so it fails the run instead of the process.
func (c *Cell) write(data []byte) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("snapshot: OnSave hook panicked: %v\n%s", r, debug.Stack())
		}
		c.writer.Done()
	}()
	if err := WriteFileAtomic(c.spec.Path, data, 0o644); err != nil {
		c.err = err
		return
	}
	c.saves++
	if c.spec.OnSave != nil {
		c.spec.OnSave(c.saves)
	}
}

// Wait joins the write in flight, if any, and returns its error: nil if
// it succeeded, if no write was in flight, or if an earlier join already
// returned its error. Once Wait returns nil, the file holds the last
// save.
func (c *Cell) Wait() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.join()
}

// join waits for the write in flight and takes its error, so each failed
// write is reported once. c.mu is held.
func (c *Cell) join() error {
	c.writer.Wait()
	err := c.err
	c.err = nil
	return err
}

// image replaces e's contents with the cell file's container, whose
// system section is the System container system writes, at most bound
// bytes, and returns it. It first reserves the whole image's bound, so
// a fresh Encoder is allocated once, at that size, and a reused one not
// at all.
func (c *Cell) image(e *Encoder, bound int, system func(*Encoder) error) ([]byte, error) {
	h := Header{Kind: cellKind, CellKey: c.key}
	e.b = e.b[:0]
	e.Reserve(FramingBytes(&h, "system") + bound)
	w := NewWriter(e, h)
	w.Section("system")
	if err := system(e); err != nil {
		return nil, err
	}
	w.End()
	return e.b, nil
}

// Discard removes the cell file; called when the cell's value has been
// recorded in the sweep checkpoint and the mid-cell state is obsolete.
// It joins the write in flight first, so no write recreates the file
// after it, and leaves that write's error to Wait.
func (c *Cell) Discard() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writer.Wait()
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
