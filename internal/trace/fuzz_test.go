package trace

import (
	"bytes"
	"compress/gzip"
	"context"
	"testing"
)

// gzipped wraps raw payload bytes in a gzip stream so fuzz inputs reach
// the trace decoder instead of dying in the gzip header check.
func gzipped(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadEvents feeds arbitrary bytes to ReadEvents, both raw and
// wrapped in a valid gzip envelope. The parser must either succeed or
// return an error — never panic, hang, or allocate proportionally to a
// forged header count rather than to real input.
func FuzzReadEvents(f *testing.F) {
	// Valid minimal traces.
	var empty bytes.Buffer
	if err := WriteEvents(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	var small bytes.Buffer
	if err := WriteEvents(&small, []Event{{Gap: 3, Line: 7, Write: true}, {Gap: 0, Line: 6}}); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	// Structurally interesting corruptions.
	f.Add([]byte{})
	f.Add([]byte("MYTR"))
	f.Add(gzipped(f, []byte("MYTR")))
	f.Add(gzipped(f, []byte("XXXX\x01\x00")))
	f.Add(gzipped(f, []byte{'M', 'Y', 'T', 'R', 0xff, 0x00})) // bad version
	// Forged count: header claims 2^29 events, zero bytes of payload.
	f.Add(gzipped(f, []byte{'M', 'Y', 'T', 'R', 0x01, 0x80, 0x80, 0x80, 0x80, 0x02}))
	// Count over the maxEvents sanity limit.
	f.Add(gzipped(f, []byte{'M', 'Y', 'T', 'R', 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadEvents(context.Background(), bytes.NewReader(data)); err != nil {
			_ = err // malformed input must be reported, not panic
		}
		if _, err := ReadEvents(context.Background(), bytes.NewReader(gzipped(t, data))); err != nil {
			_ = err
		}
	})
}

// FuzzReadEventsRoundTrip checks WriteEvents/ReadEvents are inverses for
// arbitrary event content, including negative line deltas, zero gaps, and
// lines spanning the full uint64 range.
func FuzzReadEventsRoundTrip(f *testing.F) {
	f.Add(int32(0), uint64(0), false, int32(1), uint64(1), true)
	f.Add(int32(100), uint64(1<<40), true, int32(0), uint64(3), false)
	f.Add(int32(1<<30), ^uint64(0), false, int32(7), uint64(0), true)
	f.Fuzz(func(t *testing.T, gap1 int32, line1 uint64, write1 bool, gap2 int32, line2 uint64, write2 bool) {
		if gap1 < 0 {
			gap1 = -gap1
		}
		if gap2 < 0 {
			gap2 = -gap2
		}
		in := []Event{
			{Gap: gap1, Line: line1, Write: write1},
			{Gap: gap2, Line: line2, Write: write2},
			{Gap: gap1, Line: line1 ^ line2, Write: write1 != write2},
		}
		var buf bytes.Buffer
		if err := WriteEvents(&buf, in); err != nil {
			t.Fatalf("WriteEvents: %v", err)
		}
		out, err := ReadEvents(context.Background(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadEvents: %v", err)
		}
		if len(out) != len(in) {
			t.Fatalf("round trip length %d, want %d", len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("event %d: round trip %+v, want %+v", i, out[i], in[i])
			}
		}
	})
}
