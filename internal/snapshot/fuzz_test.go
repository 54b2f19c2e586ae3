package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode feeds adversarial bytes to the container decoder.
// The contract under fuzz: no panic, no unbounded preallocation (every
// count is validated against the physical input before allocating), and
// anything that decodes successfully must re-encode (through the Writer)
// to a container that decodes to the same header and sections.
func FuzzSnapshotDecode(f *testing.F) {
	// Well-formed container.
	valid := encodeSections(Header{
		Kind: "mayasim/system/v1", Seed: 1, Design: "Maya-6b3r6i",
		Workloads: "mix_zipf", Cores: 1, Warmup: 10, ROI: 20, Phase: PhaseROI,
	}, section{"run", []byte{1, 2, 3, 4}}, section{"llc", bytes.Repeat([]byte{0xab}, 64)})
	f.Add(valid)
	// Truncations at structural boundaries.
	f.Add(valid[:8])
	f.Add(valid[:10])
	f.Add(valid[:len(valid)/2])
	// Magic-only, empty, and foreign input.
	f.Add([]byte("MAYASNAP"))
	f.Add([]byte{})
	f.Add([]byte("MYTR\x01garbage"))
	// Forged huge header length right after the version field.
	forged := append([]byte(nil), valid[:10]...)
	forged = append(forged, 0xff, 0xff, 0xff, 0x7f)
	f.Add(forged)
	// A cell container, to cover the header string paths.
	f.Add(encodeSections(Header{Kind: cellKind, CellKey: "bench=mcf|seed=1"}, section{"system", valid}))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned both snapshot and error")
			}
			return
		}
		secs := make([]section, len(snap.Names()))
		for i, name := range snap.Names() {
			secs[i] = section{name, snap.Section(name)}
		}
		re, err := Decode(encodeSections(snap.Header, secs...))
		if err != nil {
			t.Fatalf("re-decode of re-encoded container failed: %v", err)
		}
		if re.Header != snap.Header {
			t.Fatal("header changed across re-encode")
		}
		if len(re.Names()) != len(snap.Names()) {
			t.Fatal("section count changed across re-encode")
		}
		for _, name := range snap.Names() {
			if !bytes.Equal(re.Section(name), snap.Section(name)) {
				t.Fatalf("section %q changed across re-encode", name)
			}
		}
	})
}
