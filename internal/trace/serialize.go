package trace

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace serialization: a compact gzip-compressed binary format so
// synthetic traces can be captured once and replayed (or external traces
// converted into the simulator's format). Layout after the gzip layer:
//
//	magic "MYTR" | version u8 | count u64 | count x (gap varint,
//	line varint-delta, flags u8)
//
// Lines are delta-encoded against the previous event's line (zig-zag), so
// strided and streaming traces compress to a few bits per event.

const (
	traceMagic   = "MYTR"
	traceVersion = 1
	flagWrite    = 1 << 0
)

// WriteEvents serializes events to w.
func WriteEvents(w io.Writer, events []Event) error {
	gz := gzip.NewWriter(w)
	bw := bufio.NewWriter(gz)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(events)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	var prev uint64
	for _, e := range events {
		n = binary.PutUvarint(buf[:], uint64(e.Gap))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		delta := int64(e.Line) - int64(prev)
		n = binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		flags := byte(0)
		if e.Write {
			flags |= flagWrite
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		prev = e.Line
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return gz.Close()
}

// offsetReader counts decompressed bytes consumed from the underlying
// stream so decode errors can point at the exact offset of the bad
// record (offsets are within the decompressed payload, not the gzip
// file, since that is where the varint framing lives).
type offsetReader struct {
	br  *bufio.Reader
	off int64
}

func (o *offsetReader) ReadByte() (byte, error) {
	b, err := o.br.ReadByte()
	if err == nil {
		o.off++
	}
	return b, err
}

func (o *offsetReader) Read(p []byte) (int, error) {
	n, err := o.br.Read(p)
	o.off += int64(n)
	return n, err
}

// ReadEvents deserializes a trace written by WriteEvents. Decode errors
// identify the failing event index and its decompressed byte offset. The
// decode checks ctx periodically and abandons a multi-gigabyte (or
// maliciously slow) trace soon after cancellation.
func ReadEvents(ctx context.Context, r io.Reader) ([]Event, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer gz.Close()
	br := &offsetReader{br: bufio.NewReader(gz)}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version at offset %d: %w", br.off, err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading event count at offset %d: %w", br.off, err)
	}
	const maxEvents = 1 << 30
	if count > maxEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	// Cap the up-front allocation: the count is attacker-controlled header
	// data, and a forged count near maxEvents would commit ~24GB before a
	// single event is validated. Growth beyond the cap is paid only as
	// real, decodable events arrive.
	const maxPrealloc = 1 << 16
	prealloc := count
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	events := make([]Event, 0, prealloc)
	// Poll the context on a stride long enough that the check costs
	// nothing against varint decoding, short enough (~a millisecond of
	// decode work) that cancellation latency stays negligible.
	const cancelCheckPeriod = 1 << 14
	var prev uint64
	for i := uint64(0); i < count; i++ {
		if i%cancelCheckPeriod == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("trace: decode abandoned at event %d: %w", i, ctx.Err())
		}
		at := br.off
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d gap at offset %d: %w", i, at, err)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d line at offset %d: %w", i, at, err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: event %d flags at offset %d: %w", i, at, err)
		}
		line := uint64(int64(prev) + delta)
		events = append(events, Event{
			Gap:   int32(gap),
			Line:  line,
			Write: flags&flagWrite != 0,
		})
		prev = line
	}
	return events, nil
}

// Capture materializes n events from a generator.
func Capture(g Generator, n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Replayer is a Generator that plays back a recorded event slice,
// wrapping around at the end.
type Replayer struct {
	name   string
	events []Event
	pos    int
}

// NewReplayer wraps events as a Generator. An empty slice is an error:
// a Replayer with nothing to replay could only panic later, mid-run,
// inside Next.
func NewReplayer(name string, events []Event) (*Replayer, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: replayer %q has no events", name)
	}
	return &Replayer{name: name, events: events}, nil
}

// Next implements Generator.
func (r *Replayer) Next() Event {
	e := r.events[r.pos]
	r.pos++
	if r.pos == len(r.events) {
		r.pos = 0
	}
	return e
}

// Name implements Generator.
func (r *Replayer) Name() string { return r.name }
