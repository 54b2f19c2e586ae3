package main

import "testing"

// TestValidateFlags pins the usage contract that maps to exit 2.
func TestValidateFlags(t *testing.T) {
	valid := flags{exp: "fig8", runs: 3, max: 20000, sets: 64, noise: 16, workers: 1}
	cases := []struct {
		name   string
		mutate func(f *flags)
		ok     bool
	}{
		{"valid", func(f *flags) {}, true},
		{"all experiments", func(f *flags) { f.exp = "all" }, true},
		{"eviction sets", func(f *flags) { f.exp = "evictionset" }, true},
		{"one run, one sample, no noise", func(f *flags) { f.runs, f.max, f.noise = 1, 1, 0 }, true},
		{"two sets", func(f *flags) { f.sets = 2 }, true},
		{"unknown experiment", func(f *flags) { f.exp = "fig99" }, false},
		{"zero runs", func(f *flags) { f.runs = 0 }, false},
		{"negative runs", func(f *flags) { f.runs = -1 }, false},
		{"zero max", func(f *flags) { f.max = 0 }, false},
		{"negative noise", func(f *flags) { f.noise = -1 }, false},
		{"zero sets", func(f *flags) { f.sets = 0 }, false},
		{"one set", func(f *flags) { f.sets = 1 }, false},
		{"three sets", func(f *flags) { f.sets = 3 }, false},
		{"negative sets", func(f *flags) { f.sets = -64 }, false},
		{"zero workers", func(f *flags) { f.workers = 0 }, false},
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

// TestDesignsBuild builds every cache of the Fig 8 and eviction-set
// tables, so a row whose family this binary does not link fails here
// rather than at run time.
func TestDesignsBuild(t *testing.T) {
	for _, d := range append(fig8Designs(32), evictionSetDesigns(32)...) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: %v", d.name, r)
				}
			}()
			if g := d.mk(1).Geometry(); g.DataEntries <= 0 {
				t.Errorf("%s: geometry %+v holds no data", d.name, g)
			}
		}()
	}
}
