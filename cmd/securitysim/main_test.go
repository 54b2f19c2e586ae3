package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mayacache/internal/report"
)

// TestValidateFlags pins the usage contract that maps to exit 2.
func TestValidateFlags(t *testing.T) {
	valid := flags{exp: "fig6", buckets: 256, iters: 1000, shards: 4, workers: 2}
	cases := []struct {
		name   string
		mutate func(f *flags)
		ok     bool
	}{
		{"valid", func(f *flags) {}, true},
		{"all experiments", func(f *flags) { f.exp = "all" }, true},
		{"one shard", func(f *flags) { f.shards = 1 }, true},
		{"shards equal iters", func(f *flags) { f.shards = 1000 }, true},
		{"unknown experiment", func(f *flags) { f.exp = "fig99" }, false},
		{"zero iters", func(f *flags) { f.iters = 0 }, false},
		{"zero shards", func(f *flags) { f.shards = 0 }, false},
		{"negative shards", func(f *flags) { f.shards = -3 }, false},
		{"shards exceed iters", func(f *flags) { f.shards = 1001 }, false},
		{"fig7 at one sample per shard", func(f *flags) { f.exp = "fig7"; f.iters = 800 }, true},
		{"fig7 fewer iters per shard than samples", func(f *flags) { f.exp = "fig7"; f.iters = 799 }, false},
		{"all fewer iters than samples", func(f *flags) { f.exp = "all"; f.iters = 100; f.shards = 1 }, false},
		{"fig6 fewer iters than samples", func(f *flags) { f.iters = 100; f.shards = 1 }, true},
		{"zero workers", func(f *flags) { f.workers = 0 }, false},
		{"negative workers", func(f *flags) { f.workers = -1 }, false},
		{"zero buckets", func(f *flags) { f.buckets = 0 }, false},
	}
	for _, tc := range cases {
		f := valid
		tc.mutate(&f)
		err := validateFlags(f)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid flags accepted", tc.name)
		}
	}
}

// TestGoldenTables renders the analytical Tables I and IV through the
// command's own emit and compares each with its committed copy, the
// stdout of `securitysim -experiment table1|table4`. Their design points
// are transforms of the Maya row, so a change to that row fails here.
// Regenerate a copy only for a deliberate output change, e.g.
// `go run ./cmd/securitysim -experiment table1 > cmd/securitysim/testdata/table1.txt`.
func TestGoldenTables(t *testing.T) {
	for _, tc := range []struct {
		file   string
		render func(func(*report.Table)) error
	}{
		{"table1.txt", table1},
		{"table4.txt", table4},
	} {
		var got bytes.Buffer
		if err := tc.render(report.Emitter(&got, false)); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: rendered table differs from the committed copy; got:\n%s", tc.file, got.Bytes())
		}
	}
}
