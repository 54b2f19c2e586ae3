package snapshot

import (
	"context"
	"errors"
	"os"
	"path/filepath"
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

// TestContainerRoundTrip checks Encode→Decode preserves the header and
// every section byte-for-byte, in order.
func TestContainerRoundTrip(t *testing.T) {
	s := NewSnapshot(testHeader())
	s.Add("llc", []byte{1, 2, 3})
	s.Add("dram", nil)
	s.Add("run", []byte("payload"))

	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header != s.Header {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.Header, s.Header)
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

// TestDecodeRejectsCorruption flips every byte of a valid container in
// turn and requires Decode to fail (or, for the rare flips that keep the
// container valid, to change nothing structural) without panicking. Flips
// inside CRC-protected payloads must always be caught.
func TestDecodeRejectsCorruption(t *testing.T) {
	s := NewSnapshot(testHeader())
	s.Add("run", []byte("the quick brown fox"))
	data := s.Encode()

	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		got, err := Decode(mut)
		if err != nil {
			continue // rejected: good
		}
		// A surviving flip must not have altered header or payload.
		if got.Header != s.Header || string(got.Section("run")) != "the quick brown fox" {
			t.Fatalf("byte %d flip silently altered decoded state", i)
		}
	}
}

// TestDecodeRejectsTruncation truncates at every length and requires a
// structured error, never a panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	s := NewSnapshot(testHeader())
	s.Add("run", []byte("abcdefgh"))
	data := s.Encode()
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
	data := NewSnapshot(testHeader()).Encode()
	data[8] = 0xff // version low byte
	var ve *VersionError
	if _, err := Decode(data); !errors.As(err, &ve) {
		t.Fatalf("bad version: got %v", err)
	}

	s := NewSnapshot(testHeader())
	s.Add("run", []byte("abcdefgh"))
	data = s.Encode()
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
	s := NewSnapshot(testHeader())
	s.Add("run", []byte("x"))
	if err := WriteFileAtomic(path, s.Encode(), 0o644); err != nil {
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
	if got.Header != s.Header {
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
// in-progress system twice, reopen, read the latest state, discard.
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
	spec.OnSave = func(n int) { saves = append(saves, n) }
	c.spec.OnSave = spec.OnSave
	if err := c.SaveSystem([]byte("STATE1")); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSystem([]byte("STATE2")); err != nil {
		t.Fatal(err)
	}
	if len(saves) != 2 || saves[0] != 1 || saves[1] != 2 {
		t.Fatalf("OnSave counts: %v", saves)
	}

	// Reopen as a fresh process would: the latest save is the state.
	c2, err := OpenCell(spec, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(c2.SystemState()) != "STATE2" {
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
	if err := c.SaveSystem([]byte("S")); err != nil {
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
