package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"
)

// A cancelled context must abandon the decode partway rather than
// materializing the rest of the trace.
func TestReadEventsCancelled(t *testing.T) {
	g := MustGenerator(MustLookup("mcf"), 0, 7)
	events := Capture(g, 100_000)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := ReadEvents(ctx, &buf)
	if err == nil {
		t.Fatal("ReadEvents returned events under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if got != nil {
		t.Fatalf("got %d events, want nil", len(got))
	}
}

func TestRoundTrip(t *testing.T) {
	g := MustGenerator(MustLookup("mcf"), 0, 7)
	events := Capture(g, 5000)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip length %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := MustGenerator(MustLookup("lbm"), int(seed%8), seed)
		events := Capture(g, 200)
		var buf bytes.Buffer
		if WriteEvents(&buf, events) != nil {
			return false
		}
		got, err := ReadEvents(context.Background(), &buf)
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionIsEffective(t *testing.T) {
	// Streaming traces must compress far below 8 bytes/event.
	g := MustGenerator(MustLookup("lbm"), 0, 1)
	events := Capture(g, 10000)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(len(events))
	if perEvent > 4 {
		t.Fatalf("%.2f bytes/event; delta+gzip should beat 4", perEvent)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(context.Background(), bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid gzip, wrong magic.
	var buf bytes.Buffer
	if err := WriteEvents(&buf, []Event{{Line: 1}}); err != nil {
		t.Fatal(err)
	}
	corrupted := buf.Bytes()
	// Truncation must error, not panic.
	if _, err := ReadEvents(context.Background(), bytes.NewReader(corrupted[:len(corrupted)/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestDecodeErrorsCarryOffsets(t *testing.T) {
	// A trace truncated mid-event must report which event failed and at
	// which decompressed offset, so corrupt files are debuggable.
	g := MustGenerator(MustLookup("mcf"), 0, 3)
	events := Capture(g, 100)
	var full bytes.Buffer
	if err := WriteEvents(&full, events); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadEvents(context.Background(), bytes.NewReader(full.Bytes()))
	if err != nil || len(payload) != 100 {
		t.Fatalf("sanity round trip: %v (%d events)", err, len(payload))
	}
	// Re-encode a shorter payload under the full count header by writing
	// the full trace and chopping compressed bytes until decode fails.
	raw := full.Bytes()
	var decodeErr error
	for cut := len(raw) - 1; cut > 0; cut-- {
		if _, decodeErr = ReadEvents(context.Background(), bytes.NewReader(raw[:cut])); decodeErr != nil {
			break
		}
	}
	if decodeErr == nil {
		t.Fatal("no truncation produced a decode error")
	}
	msg := decodeErr.Error()
	if !bytes.Contains([]byte(msg), []byte("offset")) {
		t.Fatalf("decode error lacks offset context: %v", msg)
	}
}

func TestReplayerWrapsAround(t *testing.T) {
	events := []Event{{Line: 1}, {Line: 2}}
	r, err := NewReplayer("two", events)
	if err != nil {
		t.Fatal(err)
	}
	seq := []uint64{r.Next().Line, r.Next().Line, r.Next().Line}
	if seq[0] != 1 || seq[1] != 2 || seq[2] != 1 {
		t.Fatalf("replay sequence %v", seq)
	}
	if r.Name() != "two" {
		t.Fatalf("name %q", r.Name())
	}
}

func TestReplayerRejectsEmpty(t *testing.T) {
	if _, err := NewReplayer("x", nil); err == nil {
		t.Fatal("empty replayer accepted")
	}
}
