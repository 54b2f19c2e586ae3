package rng

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/known_answers.json (only for a deliberate change to the generator's output)")

// knownAnswersPath pins the generator's output. Every stochastic component
// of the simulators draws from this stream, so the fixture is the
// generator's bit-exactness contract: a change to the state layout or to
// the bounded draws must leave it byte-identical.
var knownAnswersPath = filepath.Join("testdata", "known_answers.json")

// kaStream is one recorded draw sequence and the generator state left
// after it.
type kaStream struct {
	Seed   uint64    `json:"seed"`
	N      uint64    `json:"n,omitempty"`
	P      float64   `json:"p,omitempty"`
	Uint64 []uint64  `json:"uint64,omitempty"`
	Float  []float64 `json:"float64,omitempty"`
	Bool   []bool    `json:"bool,omitempty"`
	Int    []int     `json:"int,omitempty"`
	State  State     `json:"state"`
}

type knownAnswers struct {
	Uint64    []kaStream `json:"uint64"`
	Uint64n   []kaStream `json:"uint64n"`
	Float64   kaStream   `json:"float64"`
	Bool      kaStream   `json:"bool"`
	Geometric kaStream   `json:"geometric_sampler"`
}

// kaBounds are the Uint64n bounds pinned by the fixture. For the last
// three nearly every draw takes Lemire's rejection branch, and
// 1<<63+1 and 3<<62+1 reject about a half and a quarter of all draws.
var kaBounds = []uint64{1, 2, 3, 15, 16, 17, 1 << 15, 1<<63 + 1, 3<<62 + 1, ^uint64(0)}

const kaDraws = 16

// recordKnownAnswers draws every pinned stream from the current code.
func recordKnownAnswers() knownAnswers {
	var ka knownAnswers
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		r := New(seed)
		s := kaStream{Seed: seed}
		for i := 0; i < kaDraws; i++ {
			s.Uint64 = append(s.Uint64, r.Uint64())
		}
		s.State = r.Save()
		ka.Uint64 = append(ka.Uint64, s)
	}
	for _, n := range kaBounds {
		r := New(7)
		s := kaStream{Seed: 7, N: n}
		for i := 0; i < kaDraws; i++ {
			s.Uint64 = append(s.Uint64, r.Uint64n(n))
		}
		s.State = r.Save()
		ka.Uint64n = append(ka.Uint64n, s)
	}

	r := New(3)
	ka.Float64 = kaStream{Seed: 3}
	for i := 0; i < kaDraws; i++ {
		ka.Float64.Float = append(ka.Float64.Float, r.Float64())
	}
	ka.Float64.State = r.Save()

	r = New(4)
	ka.Bool = kaStream{Seed: 4, P: 0.3}
	for i := 0; i < 2*kaDraws; i++ {
		ka.Bool.Bool = append(ka.Bool.Bool, r.Bool(0.3))
	}
	ka.Bool.State = r.Save()

	r = New(5)
	g := NewGeometricSampler(r, 0.1)
	ka.Geometric = kaStream{Seed: 5, P: 0.1}
	for i := 0; i < 2*kaDraws; i++ {
		ka.Geometric.Int = append(ka.Geometric.Int, g.Next())
	}
	ka.Geometric.State = r.Save()
	return ka
}

// TestKnownAnswers pins the generator's output: raw xoshiro256** words for
// four seeds, bounded draws (rejection-heavy bounds included), Float64,
// Bool and the table-driven geometric sampler, each with the state it
// leaves behind. Regenerate deliberately with:
//
//	go test ./internal/rng -run TestKnownAnswers -update
func TestKnownAnswers(t *testing.T) {
	got, err := json.MarshalIndent(recordKnownAnswers(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(knownAnswersPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(knownAnswersPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w knownAnswers
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("parse %s: %v", knownAnswersPath, err)
	}
	g := recordKnownAnswers()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"uint64", g.Uint64, w.Uint64}, {"uint64n", g.Uint64n, w.Uint64n}, {"float64", g.Float64, w.Float64},
		{"bool", g.Bool, w.Bool}, {"geometric_sampler", g.Geometric, w.Geometric},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
	t.Fatalf("generator output differs from %s", knownAnswersPath)
}
