package main

import "testing"

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
