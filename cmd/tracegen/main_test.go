package main

import (
	"errors"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/experiments"
)

// TestDiagDesigns: design names match the registry exactly. A wrong-case
// or unknown name is a configuration error (exit 2), never a panic.
func TestDiagDesigns(t *testing.T) {
	for _, tc := range []struct {
		design    string
		badConfig bool
	}{
		{"baseline", true},
		{"Nope", true},
		{"Baseline", false},
	} {
		res, err := diag("mcf", experiments.Design(tc.design), 1, 20_000, 10_000, 1)
		if got := errors.Is(err, cachemodel.ErrBadConfig); got != tc.badConfig {
			t.Fatalf("%s: error %v, want ErrBadConfig %v", tc.design, err, tc.badConfig)
		}
		if !tc.badConfig && (err != nil || len(res.Cores) != 1) {
			t.Fatalf("%s: %d core results, error %v", tc.design, len(res.Cores), err)
		}
	}
}
