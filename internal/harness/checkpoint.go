package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Checkpoint file format (JSON lines, append-only):
//
//	{"format":"maya-checkpoint","version":1}
//	{"key":"sim|design=Maya|bench=mcf|cores=8|w=2000000|roi=1000000|seed=1","value":{...}}
//	...
//
// One line per completed cell, flushed to the OS after each record, so a
// killed sweep loses at most the in-flight cells. A truncated final line
// (crash mid-write) is tolerated on load and will be recomputed. Cell
// keys embed the sweep scale (warmup/roi/seed), so a checkpoint written
// at one scale is silently inapplicable — not corrupting — at another.
//
// Older versions also wrote a "snapshot" line (a key and a state-file path,
// no value) for a cell stopped mid-run. Such lines are legacy: load skips
// them, since a stopped cell's state file is found by its name under the
// snapshot directory. The header line and the file itself are fsynced so
// a machine crash right after a record cannot leave a checkpoint that
// loses acknowledged cells.
//
// The file is guarded by an exclusive advisory lock for the lifetime of
// the Checkpoint: two sweeps appending to one checkpoint would interleave
// corruptly, so the second opener fails fast instead.

const (
	checkpointFormat  = "maya-checkpoint"
	checkpointVersion = 1
)

type checkpointHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type checkpointEntry struct {
	Key      string          `json:"key"`
	Value    json.RawMessage `json:"value,omitempty"`
	Snapshot string          `json:"snapshot,omitempty"` // legacy, skipped on load
}

// Checkpoint is a concurrency-safe map of completed cell keys to their
// JSON-encoded values, mirrored to an append-only file.
type Checkpoint struct {
	mu        sync.Mutex
	path      string
	cells     map[string]json.RawMessage
	f         *os.File // nil for in-memory checkpoints
	lock      fileLock // held while f is open
	hasHeader bool     // header line already present in the file
}

// NewMemCheckpoint returns a checkpoint with no backing file (used by
// tests and by drivers that want skip-bookkeeping without persistence).
func NewMemCheckpoint() *Checkpoint {
	return &Checkpoint{cells: map[string]json.RawMessage{}}
}

// OpenCheckpoint loads the checkpoint at path (creating it if absent) and
// opens it for appending under an exclusive advisory lock. Unknown
// headers and undecodable lines are errors — except a truncated final
// line, which is discarded. A checkpoint already locked by another
// process is an error.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, cells: map[string]json.RawMessage{}}
	lock, err := acquireLock(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		_ = lock.release()
		return nil, fmt.Errorf("harness: opening checkpoint: %w", err)
	}
	validEnd, err := c.load(f)
	if err != nil {
		_ = f.Close()
		_ = lock.release()
		return nil, err
	}
	// Drop a crash-truncated partial record before appending, so the next
	// Record starts on a clean line boundary.
	if err := f.Truncate(validEnd); err != nil {
		_ = f.Close()
		_ = lock.release()
		return nil, fmt.Errorf("harness: trimming checkpoint tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		_ = lock.release()
		return nil, fmt.Errorf("harness: seeking checkpoint end: %w", err)
	}
	c.f = f
	c.lock = lock
	return c, nil
}

// load reads existing entries and returns the byte offset just past the
// last fully valid line. The header line is required on non-empty files;
// a fresh (empty) file gets one written on first Record.
func (c *Checkpoint) load(f *os.File) (int64, error) {
	raw, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("harness: reading checkpoint %s: %w", c.path, err)
	}
	var validEnd int64
	lineNo := 0
	sawHeader := false
	for start := 0; start < len(raw); {
		end := start
		for end < len(raw) && raw[end] != '\n' {
			end++
		}
		terminated := end < len(raw)
		line := raw[start:end]
		lineEnd := int64(end)
		if terminated {
			lineEnd++
		}
		lineNo++
		nextStart := end + 1
		if len(line) == 0 {
			validEnd = lineEnd
			start = nextStart
			continue
		}
		if !sawHeader {
			var h checkpointHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Format != checkpointFormat {
				return 0, fmt.Errorf("harness: %s is not a checkpoint file (bad header line)", c.path)
			}
			if h.Version != checkpointVersion {
				return 0, fmt.Errorf("harness: checkpoint %s has unsupported version %d", c.path, h.Version)
			}
			sawHeader = true
			validEnd = lineEnd
			start = nextStart
			continue
		}
		var e checkpointEntry
		if derr := json.Unmarshal(line, &e); derr != nil || e.Key == "" ||
			(len(e.Value) == 0 && e.Snapshot == "") {
			// A decode failure on the final line is a crash-truncated
			// record: drop it (the cell will be recomputed). Anywhere
			// else it is corruption.
			if nextStart >= len(raw) {
				break
			}
			return 0, fmt.Errorf("harness: checkpoint %s line %d is corrupt", c.path, lineNo)
		}
		if len(e.Value) > 0 {
			c.cells[e.Key] = e.Value
		}
		validEnd = lineEnd
		start = nextStart
	}
	c.hasHeader = sawHeader
	return validEnd, nil
}

// Lookup decodes the stored value for key into v. It returns (false, nil)
// when the key is absent, and an error when the stored JSON does not
// decode into v.
func (c *Checkpoint) Lookup(key string, v any) (bool, error) {
	c.mu.Lock()
	raw, hit := c.cells[key]
	c.mu.Unlock()
	if !hit {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("harness: decoding checkpoint value for %q: %w", key, err)
	}
	return true, nil
}

// Record stores key -> v and appends it to the backing file.
func (c *Checkpoint) Record(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: encoding checkpoint value for %q: %w", key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(checkpointEntry{Key: key, Value: raw}); err != nil {
		return err
	}
	c.cells[key] = raw
	return nil
}

// appendLocked writes one entry line, emitting (and fsyncing) the header
// first on a fresh file. The header sync guarantees no future append can
// land in a file whose first line is not yet durable.
func (c *Checkpoint) appendLocked(e checkpointEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("harness: encoding checkpoint entry for %q: %w", e.Key, err)
	}
	if c.f == nil {
		return nil
	}
	if !c.hasHeader {
		hdr, herr := json.Marshal(checkpointHeader{Format: checkpointFormat, Version: checkpointVersion})
		if herr != nil {
			return herr
		}
		if _, werr := c.f.Write(append(hdr, '\n')); werr != nil {
			return fmt.Errorf("harness: writing checkpoint header: %w", werr)
		}
		if serr := c.f.Sync(); serr != nil {
			return fmt.Errorf("harness: syncing checkpoint header: %w", serr)
		}
		c.hasHeader = true
	}
	if _, werr := c.f.Write(append(line, '\n')); werr != nil {
		return fmt.Errorf("harness: appending checkpoint entry: %w", werr)
	}
	return nil
}

// Sync flushes appended records to stable storage. Per-record appends
// only reach the OS page cache (losing the in-flight cells of a machine
// crash is acceptable for sweeps); callers whose records acknowledge
// external work — the serve layer admitting a tenant session — call Sync
// before acting on the record. In-memory checkpoints are a no-op.
func (c *Checkpoint) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("harness: syncing checkpoint: %w", err)
	}
	return nil
}

// Len returns the number of stored cells.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// Keys returns the stored cell keys, sorted.
func (c *Checkpoint) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.cells))
	//mayavet:ignore maporder -- keys are sorted immediately below
	for k := range c.cells {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Close syncs and releases the backing file and its lock (in-memory
// checkpoints are a no-op).
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	if c.lock != nil {
		if lerr := c.lock.release(); err == nil {
			err = lerr
		}
		c.lock = nil
	}
	return err
}

// roundTrip passes v through the checkpoint's JSON encoding, returning
// the decoded copy. Running every completed cell value through the same
// encode/decode path — whether or not it was restored from a file — is
// what makes resumed sweeps byte-identical to uninterrupted ones.
func roundTrip[T any](v T) (T, error) {
	var out T
	raw, err := json.Marshal(v)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, err
	}
	return out, nil
}
