package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mayacache/internal/report"
)

// TestGoldenTables renders Tables VIII, IX and X (without -perf) through
// the command's own emit and compares each with its committed copy, the
// stdout of `overheads -table storage|energy|summary`. Every number in
// them follows from the design table, so a geometry change that moves a
// storage, cost or security figure fails here. Regenerate a copy only for
// a deliberate output change, e.g.
// `go run ./cmd/overheads -table storage > cmd/overheads/testdata/table8.txt`.
func TestGoldenTables(t *testing.T) {
	for _, tc := range []struct {
		file   string
		render func(emit func(*report.Table)) error
	}{
		{"table8.txt", func(emit func(*report.Table)) error { storageTable(emit); return nil }},
		{"table9.txt", func(emit func(*report.Table)) error { energyTable(emit); return nil }},
		{"table10.txt", func(emit func(*report.Table)) error { return summaryTable(emit, false, 0, 0) }},
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
