package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Container format (little-endian, see DESIGN.md §7):
//
//	magic   "MAYASNAP"                  8 bytes
//	version u16                          format revision, currently 1
//	header  u32 len | payload | u32 CRC  encoded Header
//	count   u16                          number of sections
//	section u16 name len | name
//	        u32 payload len | payload | u32 CRC
//
// Every variable-length field is validated against the remaining input
// before allocation, and every payload carries its own CRC-32 (IEEE) so
// torn writes and bit rot surface as CorruptError, never as a plausible
// but wrong simulator state.
const (
	magic   = "MAYASNAP"
	Version = 1

	maxSections    = 256
	maxSectionName = 256
	maxHeaderStr   = 4096
)

// Phase identifies which run phase a System snapshot was taken in.
const (
	PhaseWarmup uint8 = iota
	PhaseROI
)

// ErrNotSnapshot reports input that does not begin with the snapshot magic.
var ErrNotSnapshot = errors.New("snapshot: not a snapshot (bad magic)")

// ErrStopped is returned by a run that halted deliberately after writing a
// deadline snapshot (SIGTERM, fault injection, tests). It marks the cell
// resumable rather than failed.
var ErrStopped = errors.New("snapshot: run stopped after deadline snapshot")

// VersionError reports a container whose format revision this binary does
// not understand.
type VersionError struct {
	Got uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported format version %d (want %d)", e.Got, Version)
}

// CorruptError reports structurally invalid or integrity-failing bytes:
// truncation, CRC mismatch, out-of-range counts or indices.
type CorruptError struct {
	At     string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt %s: %s", e.At, e.Detail)
}

// MismatchError reports a well-formed snapshot that belongs to a different
// run: the named field (seed, design, geometry, cores, workloads, cell
// key, phase …) disagrees with the configuration trying to restore it.
type MismatchError struct {
	Field string
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("snapshot: %s mismatch: snapshot has %s, run has %s", e.Field, e.Got, e.Want)
}

// Stateful is implemented by simulator components whose mutable state can
// be serialized and restored bit-exactly. RestoreState is called on a
// freshly constructed component with identical configuration; it must
// validate everything it reads (lengths, index ranges, enum values) and
// return an error — never panic — on inconsistent input.
type Stateful interface {
	SaveState(e *Encoder)
	RestoreState(d *Decoder) error
}

// EpochHasher is implemented by index randomizers whose full mutable state
// is a remap epoch (keys derive deterministically from seed and epoch).
// Hashers without it are treated as stateless: saved as epoch 0 and
// rejected on restore if a nonzero epoch appears.
type EpochHasher interface {
	Epoch() uint64
	RestoreEpoch(epoch uint64)
}

// SaveHasherEpoch records h's remap epoch, or 0 for stateless hashers.
func SaveHasherEpoch(e *Encoder, h any) {
	var epoch uint64
	if eh, ok := h.(EpochHasher); ok {
		epoch = eh.Epoch()
	}
	e.U64(epoch)
}

// RestoreHasherEpoch applies a recorded epoch to h. A nonzero epoch on a
// hasher that cannot be rekeyed means the snapshot was taken under a
// different index mapping than this run can reproduce, so it is rejected.
func RestoreHasherEpoch(d *Decoder, h any) {
	epoch := d.U64()
	if d.Err() != nil {
		return
	}
	if eh, ok := h.(EpochHasher); ok {
		eh.RestoreEpoch(epoch)
		return
	}
	if epoch != 0 {
		d.Fail("hasher", "epoch %d recorded for a stateless hasher", epoch)
	}
}

// Trigger is a one-shot broadcast flag: cmd/mayasim fires it on SIGTERM
// and every running System polls it, writes a deadline snapshot, and
// returns ErrStopped. It is safe for concurrent use.
type Trigger struct {
	fired atomic.Bool
}

// Fire sets the trigger. Idempotent.
func (t *Trigger) Fire() { t.fired.Store(true) }

// Fired reports whether Fire has been called.
func (t *Trigger) Fired() bool { return t != nil && t.fired.Load() }

// Header identifies what a snapshot contains and the run it belongs to,
// so loads can reject foreign state before touching any section. It holds
// no timestamps: identical runs must produce identical headers.
type Header struct {
	Kind      string    // container kind, e.g. "mayasim/system/v1"
	CellKey   string    // sweep cell key for cell containers
	Seed      uint64    // experiment seed
	Design    string    // LLC design name
	Workloads string    // comma-joined per-core generator names
	Cores     int       // core count
	Geometry  [6]uint64 // design geometry words (writer-defined packing)
	Warmup    uint64    // warmup instructions per core
	ROI       uint64    // ROI instructions per core
	Phase     uint8     // PhaseWarmup or PhaseROI at capture time
	Progress  uint64    // total retired instructions at capture (informational)
}

func (h *Header) encode(e *Encoder) {
	e.Str(h.Kind)
	e.Str(h.CellKey)
	e.U64(h.Seed)
	e.Str(h.Design)
	e.Str(h.Workloads)
	e.Int(h.Cores)
	for _, g := range h.Geometry {
		e.U64(g)
	}
	e.U64(h.Warmup)
	e.U64(h.ROI)
	e.U8(h.Phase)
	e.U64(h.Progress)
}

func (h *Header) decode(d *Decoder) error {
	h.Kind = d.Str(maxHeaderStr)
	h.CellKey = d.Str(maxHeaderStr)
	h.Seed = d.U64()
	h.Design = d.Str(maxHeaderStr)
	h.Workloads = d.Str(maxHeaderStr)
	h.Cores = d.Int()
	for i := range h.Geometry {
		h.Geometry[i] = d.U64()
	}
	h.Warmup = d.U64()
	h.ROI = d.U64()
	h.Phase = d.U8()
	h.Progress = d.U64()
	if err := d.Finish(); err != nil {
		return err
	}
	if h.Cores < 0 {
		return &CorruptError{At: "header", Detail: fmt.Sprintf("negative core count %d", h.Cores)}
	}
	if h.Phase > PhaseROI {
		return &CorruptError{At: "header", Detail: fmt.Sprintf("invalid phase %d", h.Phase)}
	}
	return nil
}

// sectionCRC covers both the section name and its payload so a corrupted
// name cannot silently re-home an intact payload.
func sectionCRC(name, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(name), crc32.IEEETable, payload)
}

// Writer writes one container in place at the end of an Encoder, in one
// pass. NewWriter writes the magic, the version and the header, and
// reserves the section count; Section opens a section whose payload is
// everything appended to the Encoder until the next Section or End; End
// closes the last section and patches the count. Each length is reserved
// and then patched, and each CRC is computed over the bytes where they
// already lie, so no payload is copied, and a section's payload may
// itself be a container written by another Writer on the same Encoder.
type Writer struct {
	e     *Encoder
	count int // offset of the reserved section count
	n     int // sections opened
	name  int // offset of the open section's name
	size  int // offset of its reserved payload length; -1 when none is open
}

// NewWriter starts a container with header h at the end of e.
func NewWriter(e *Encoder, h Header) Writer {
	e.b = append(e.b, magic...)
	e.U16(Version)
	at := len(e.b)
	e.U32(0)
	h.encode(e)
	header := e.b[at+4:]
	binary.LittleEndian.PutUint32(e.b[at:], uint32(len(header)))
	e.U32(crc32.ChecksumIEEE(header))
	w := Writer{e: e, count: len(e.b), size: -1}
	e.U16(0)
	return w
}

// Section closes the open section, if any, and opens the named one.
// Section names are fixed at the call sites, so an invalid name is a
// programming error and panics; a duplicate name is caught by Decode.
func (w *Writer) Section(name string) {
	if len(name) == 0 || len(name) > maxSectionName {
		panic("snapshot: invalid section name")
	}
	w.close()
	w.n++
	w.e.U16(uint16(len(name)))
	w.name = len(w.e.b)
	w.e.b = append(w.e.b, name...)
	w.size = len(w.e.b)
	w.e.U32(0)
}

// close patches the open section's payload length and appends its CRC.
func (w *Writer) close() {
	if w.size < 0 {
		return
	}
	b := w.e.b
	payload := b[w.size+4:]
	binary.LittleEndian.PutUint32(b[w.size:], uint32(len(payload)))
	w.e.U32(sectionCRC(b[w.name:w.size], payload))
	w.size = -1
}

// End closes the open section and patches the section count. The
// container is complete; further writes to the Encoder follow it.
func (w *Writer) End() {
	w.close()
	binary.LittleEndian.PutUint16(w.e.b[w.count:], uint16(w.n))
}

// Snapshot is a decoded container: a Header plus named, CRC-protected
// sections in a stable order.
type Snapshot struct {
	Header   Header
	names    []string
	sections map[string][]byte
}

// Section returns the named payload, or nil if absent.
func (s *Snapshot) Section(name string) []byte { return s.sections[name] }

// Names returns the section names in container order.
func (s *Snapshot) Names() []string { return s.names }

// Decode parses and integrity-checks a container. It returns
// ErrNotSnapshot for foreign bytes, a VersionError for unknown revisions,
// and CorruptError for truncation, CRC failures, or structural damage. It
// never panics and never allocates beyond the input size.
func Decode(data []byte) (*Snapshot, error) {
	d := NewDecoder(data)
	got := d.take(len(magic), "magic")
	if got == nil || string(got) != magic {
		return nil, ErrNotSnapshot
	}
	if v := d.U16(); d.err == nil && v != Version {
		return nil, &VersionError{Got: v}
	}

	headerBytes := d.Bytes(len(data))
	headerCRC := d.U32()
	if d.err != nil {
		return nil, d.err
	}
	if crc32.ChecksumIEEE(headerBytes) != headerCRC {
		return nil, &CorruptError{At: "header", Detail: "CRC mismatch"}
	}
	s := &Snapshot{sections: make(map[string][]byte)}
	if err := s.Header.decode(NewDecoder(headerBytes)); err != nil {
		return nil, err
	}

	count := int(d.U16())
	if count > maxSections {
		return nil, &CorruptError{At: "sections", Detail: fmt.Sprintf("count %d exceeds limit %d", count, maxSections)}
	}
	for i := 0; i < count; i++ {
		nameLen := int(d.U16())
		if nameLen == 0 || nameLen > maxSectionName {
			d.failf("section name", "length %d out of range", nameLen)
		}
		rawName := d.take(nameLen, "section name")
		payload := d.Bytes(len(data))
		crc := d.U32()
		if d.err != nil {
			return nil, d.err
		}
		name := string(rawName)
		if sectionCRC(rawName, payload) != crc {
			return nil, &CorruptError{At: "section " + name, Detail: "CRC mismatch"}
		}
		if _, dup := s.sections[name]; dup {
			return nil, &CorruptError{At: "section " + name, Detail: "duplicate section"}
		}
		s.names = append(s.names, name)
		s.sections[name] = payload
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
