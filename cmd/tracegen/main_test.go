package main

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/experiments"
)

// TestDiagDesigns: design names match the registry exactly. A wrong-case
// or unknown name, or no cores, is a configuration error (exit 2), never
// a panic. A valid row is exactly the grid cell mayasim simulates, DRAM
// sizing included.
func TestDiagDesigns(t *testing.T) {
	for _, tc := range []struct {
		design    string
		cores     int
		badConfig bool
	}{
		{"baseline", 1, true},
		{"Nope", 1, true},
		{"Baseline", 0, true},
		{"Baseline", 1, false},
		{"Maya", 1, false},
		{"Mirage", 8, false},
	} {
		res, err := diag("mcf", experiments.Design(tc.design), tc.cores, 20_000, 10_000, 1)
		if got := errors.Is(err, cachemodel.ErrBadConfig); got != tc.badConfig {
			t.Fatalf("%s: error %v, want ErrBadConfig %v", tc.design, err, tc.badConfig)
		}
		if tc.badConfig {
			continue
		}
		if err != nil || len(res.Cores) != tc.cores {
			t.Fatalf("%s: %d core results, error %v", tc.design, len(res.Cores), err)
		}
		sc := experiments.Scale{WarmupInstr: 20_000, ROIInstr: 10_000, Seed: 1}
		cell, err := experiments.RunGridCell(context.Background(), experiments.Design(tc.design), "mcf", tc.cores, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, cell) {
			t.Fatalf("%s x%d: diag differs from the grid cell:\n%+v\n%+v", tc.design, tc.cores, res, cell)
		}
	}
}
