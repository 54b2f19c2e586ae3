package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mayacache/internal/rng"
)

func testHeader() Header {
	return Header{
		Kind:      "mayasim/system/v1",
		Seed:      42,
		Design:    "Maya-6b3r6i",
		Workloads: "mix_zipf,mix_scan",
		Cores:     2,
		Geometry:  [6]uint64{16, 2, 1024, 768, 0, 0},
		Warmup:    1000,
		ROI:       2000,
		Phase:     PhaseROI,
		Progress:  1234,
	}
}

// section is one named payload for encodeSections.
type section struct {
	name    string
	payload []byte
}

// encodeSections writes a container of the given sections through the
// Writer.
func encodeSections(h Header, secs ...section) []byte {
	var e Encoder
	w := NewWriter(&e, h)
	for _, s := range secs {
		w.Section(s.name)
		e.b = append(e.b, s.payload...)
	}
	w.End()
	return e.Data()
}

// payload is a SaveSystem callback that writes p verbatim.
func payload(p string) func(*Encoder) error {
	return func(e *Encoder) error {
		copy(e.Record(len(p)), p)
		return nil
	}
}

// TestContainerRoundTrip checks Writer→Decode preserves the header and
// every section byte-for-byte, in order.
func TestContainerRoundTrip(t *testing.T) {
	data := encodeSections(testHeader(),
		section{"llc", []byte{1, 2, 3}}, section{"dram", nil}, section{"run", []byte("payload")})

	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header != testHeader() {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.Header, testHeader())
	}
	if len(got.Names()) != 3 || got.Names()[0] != "llc" || got.Names()[1] != "dram" || got.Names()[2] != "run" {
		t.Fatalf("section order: %v", got.Names())
	}
	if string(got.Section("run")) != "payload" {
		t.Fatalf("section payload: %q", got.Section("run"))
	}
	if got.Section("absent") != nil {
		t.Fatal("absent section not nil")
	}
}

// TestWriterNests writes a container as the payload of another
// container's section on one Encoder, as a cell save writes the System
// container, after bytes that are not part of either: the outer
// container decodes, and its section is exactly the inner container.
func TestWriterNests(t *testing.T) {
	inner := encodeSections(testHeader(), section{"llc", []byte{1, 2, 3}}, section{"dram", []byte("d")})
	var e Encoder
	e.U8(0xee)
	outer := NewWriter(&e, Header{Kind: cellKind, CellKey: "k"})
	outer.Section("system")
	w := NewWriter(&e, testHeader())
	w.Section("llc")
	e.b = append(e.b, 1, 2, 3)
	w.Section("dram")
	e.U8('d')
	w.End()
	outer.End()

	got, err := Decode(e.Data()[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.CellKey != "k" || len(got.Names()) != 1 || !bytes.Equal(got.Section("system"), inner) {
		t.Fatalf("outer container %+v %v does not hold the inner container", got.Header, got.Names())
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid container in
// turn and requires Decode to fail (or, for the rare flips that keep the
// container valid, to change nothing structural) without panicking. Flips
// inside CRC-protected payloads must always be caught.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := encodeSections(testHeader(), section{"run", []byte("the quick brown fox")})

	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		got, err := Decode(mut)
		if err != nil {
			continue // rejected: good
		}
		// A surviving flip must not have altered header or payload.
		if got.Header != testHeader() || string(got.Section("run")) != "the quick brown fox" {
			t.Fatalf("byte %d flip silently altered decoded state", i)
		}
	}
}

// TestDecodeRejectsTruncation truncates at every length and requires a
// structured error, never a panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	data := encodeSections(testHeader(), section{"run", []byte("abcdefgh")})
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

// TestDecodeErrorTaxonomy checks foreign bytes, unknown versions, and CRC
// damage map to the advertised error types.
func TestDecodeErrorTaxonomy(t *testing.T) {
	if _, err := Decode([]byte("NOTASNAP....")); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("bad magic: got %v", err)
	}
	data := encodeSections(testHeader())
	data[8] = 0xff // version low byte
	var ve *VersionError
	if _, err := Decode(data); !errors.As(err, &ve) {
		t.Fatalf("bad version: got %v", err)
	}

	data = encodeSections(testHeader(), section{"run", []byte("abcdefgh")})
	data[len(data)-6] ^= 1 // inside the run payload
	var ce *CorruptError
	if _, err := Decode(data); !errors.As(err, &ce) {
		t.Fatalf("payload damage: got %v", err)
	}
}

// TestDecoderBoundsAndSticky checks the sticky-error contract and that
// counts are bounded by both the caller limit and the physical input.
func TestDecoderBoundsAndSticky(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // forged huge count
	d := NewDecoder(e.Data())
	if n := d.Count(10); n != 0 || d.Err() == nil {
		t.Fatalf("forged count accepted: n=%d err=%v", n, d.Err())
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("read after error returned %d", v)
	}

	e = Encoder{}
	e.U32(100) // count exceeds remaining bytes
	d = NewDecoder(e.Data())
	if n := d.Count(1 << 20); n != 0 || d.Err() == nil {
		t.Fatalf("count beyond input accepted: n=%d", n)
	}
}

// TestEncoderDecoderRNG round-trips generator state through the codec.
func TestEncoderDecoderRNG(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 37; i++ {
		r.Uint64()
	}
	var e Encoder
	e.RNG(r)
	fresh := rng.New(0)
	d := NewDecoder(e.Data())
	d.RNG(fresh)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatalf("restored stream diverged at %d", i)
		}
	}
	// All-zero RNG state must be refused.
	d = NewDecoder(make([]byte, 32))
	d.RNG(fresh)
	if d.Err() == nil {
		t.Fatal("all-zero rng state accepted")
	}
}

// TestWriteFileAtomic checks the durable write path: a container round
// trip, an overwrite that replaces the whole file and its mode, no temp
// litter, and an error (not a stray file) for a missing directory.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.snap")
	if err := WriteFileAtomic(path, encodeSections(testHeader(), section{"run", []byte("x")}), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != testHeader() {
		t.Fatal("read-back header mismatch")
	}

	// An overwrite replaces the full content, never appends or truncates
	// short, and applies the new mode.
	if err := WriteFileAtomic(path, []byte("[::1]:65535"), 0o600); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if data, err = os.ReadFile(path); err != nil || string(data) != "[::1]:65535" {
		t.Fatalf("content after overwrite = %q (%v)", data, err)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o600 {
		t.Fatalf("mode after overwrite: %v %v", info.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1 (temp litter?)", len(entries))
	}

	if err := WriteFileAtomic(filepath.Join(dir, "nope", "addr"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestCellLifecycle exercises the mid-run resume state machine: save an
// in-progress system three times, reopen, read the latest state, discard.
// OnSave runs once per save, in order, each time with its own save's
// image in the file, and once Wait returns the file holds the last save
// with no temp file beside it.
func TestCellLifecycle(t *testing.T) {
	dir := t.TempDir()
	key := "design=Maya|bench=mcf|cores=8|w=1|roi=1|seed=1"
	spec := CellSpec{Path: filepath.Join(dir, CellFileName(key)), Every: 100}
	c, err := OpenCell(spec, key)
	if err != nil {
		t.Fatal(err)
	}
	if c.SystemState() != nil {
		t.Fatal("fresh cell has in-progress state")
	}
	var saves []int
	spec.OnSave = func(n int) {
		saves = append(saves, n)
		re, err := OpenCell(CellSpec{Path: spec.Path}, key)
		if err != nil {
			t.Error(err)
			return
		}
		if got, want := string(re.SystemState()), fmt.Sprintf("STATE%d", n); got != want {
			t.Errorf("OnSave(%d) found %q in the file, want %q", n, got, want)
		}
	}
	c.spec.OnSave = spec.OnSave
	for i := 1; i <= 3; i++ {
		if err := c.SaveSystem(payload(fmt.Sprintf("STATE%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(saves) != 3 || saves[0] != 1 || saves[1] != 2 || saves[2] != 3 {
		t.Fatalf("OnSave counts: %v", saves)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(spec.Path) {
		t.Fatalf("directory holds %d entries after Wait, want only the cell file", len(entries))
	}

	// Reopen as a fresh process would: the latest save is the state.
	c2, err := OpenCell(spec, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(c2.SystemState()) != "STATE3" {
		t.Fatalf("SystemState: %q", c2.SystemState())
	}
	if c2.Saves() != 0 {
		t.Fatalf("reopened cell reports %d saves, want 0 (the count is per process)", c2.Saves())
	}

	if err := c2.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spec.Path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Discard left the cell file behind")
	}
	if err := c2.Discard(); err != nil {
		t.Fatal("second Discard errored")
	}

	// Discard joins the write in flight, so that write cannot bring the
	// file back after it.
	if err := c.SaveSystem(payload("STATE4")); err != nil {
		t.Fatal(err)
	}
	if err := c.Discard(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spec.Path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("a write in flight recreated the discarded cell file")
	}
}

// TestCellConcurrentSaves saves from several goroutines at once, while
// another joins the writes: every save counts, and the file holds one
// whole save, never a mix of two.
func TestCellConcurrentSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.snap")
	c, err := OpenCell(CellSpec{Path: path}, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	const writers, saves = 4, 10
	var wg sync.WaitGroup
	stop := make(chan struct{})
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Wait(); err != nil {
				t.Error(err)
				return
			}
			if n := c.Saves(); n > writers*saves {
				t.Errorf("saves = %d mid-run, more than were made", n)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				if err := c.SaveSystem(payload(p)); err != nil {
					t.Error(err)
					return
				}
			}
		}(strings.Repeat(string(rune('a'+g)), 4096))
	}
	wg.Wait()
	close(stop)
	<-joined
	if c.Saves() != writers*saves {
		t.Fatalf("saves = %d, want %d", c.Saves(), writers*saves)
	}
	re, err := OpenCell(CellSpec{Path: path}, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	if st := string(re.SystemState()); len(st) != 4096 || strings.Count(st, st[:1]) != 4096 {
		t.Fatalf("the file holds %d bytes that are not one save", len(st))
	}
}

// TestCellRejectsForeignAndCorrupt checks key mismatches and damaged cell
// files produce structured errors.
func TestCellRejectsForeignAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	spec := CellSpec{Path: filepath.Join(dir, "cell.snap")}
	c, err := OpenCell(spec, "key-A")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSystem(payload("S")); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	var me *MismatchError
	if _, err := OpenCell(spec, "key-B"); !errors.As(err, &me) || me.Field != "cell key" {
		t.Fatalf("foreign cell: got %v", err)
	}
	data, err := os.ReadFile(spec.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(spec.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := OpenCell(spec, "key-A"); !errors.As(err, &ce) {
		t.Fatalf("corrupt cell: got %v", err)
	}
}

// TestCellContext checks the context plumbing used by the experiment layer.
func TestCellContext(t *testing.T) {
	if CellFrom(context.Background()) != nil {
		t.Fatal("empty context returned a cell")
	}
	c := &Cell{}
	if CellFrom(WithCell(context.Background(), c)) != c {
		t.Fatal("cell not recovered from context")
	}
}

// TestCellFileNameStable checks the derived file name is deterministic,
// filesystem-safe, and distinct for distinct keys.
func TestCellFileNameStable(t *testing.T) {
	a := CellFileName("bench=mcf|w=1000|roi=2000|seed=1")
	if a != CellFileName("bench=mcf|w=1000|roi=2000|seed=1") {
		t.Fatal("file name not deterministic")
	}
	if a == CellFileName("bench=mcf|w=1000|roi=2000|seed=2") {
		t.Fatal("distinct keys collided")
	}
	for _, r := range a {
		if r == '/' || r == '|' || r == ' ' {
			t.Fatalf("unsafe character %q in %s", r, a)
		}
	}
}

// TestTrigger checks trigger semantics including the nil receiver used by
// systems with no deadline wiring.
func TestTrigger(t *testing.T) {
	var tr *Trigger
	if tr.Fired() {
		t.Fatal("nil trigger fired")
	}
	tr = &Trigger{}
	if tr.Fired() {
		t.Fatal("fresh trigger fired")
	}
	tr.Fire()
	tr.Fire()
	if !tr.Fired() {
		t.Fatal("fired trigger not fired")
	}
}
