package vet

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFindings(root string) []Finding {
	return []Finding{
		{
			Analyzer: "maporder",
			Pos:      token.Position{Filename: filepath.Join(root, "pkg", "a.go"), Line: 7, Column: 2},
			Message:  "iteration order leaks",
		},
		{
			Analyzer: "seedflow",
			Pos:      token.Position{Filename: filepath.Join(root, "pkg", "b.go"), Line: 3, Column: 9},
			Message:  "nondeterministic value flows",
		},
	}
}

func TestWriteJSONStableShape(t *testing.T) {
	root := string(filepath.Separator) + "repo"
	var sb strings.Builder
	if err := WriteJSON(&sb, sampleFindings(root), root); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `{
  "count": 2,
  "findings": [
    {
      "file": "pkg/a.go",
      "line": 7,
      "col": 2,
      "analyzer": "maporder",
      "message": "iteration order leaks"
    },
    {
      "file": "pkg/b.go",
      "line": 3,
      "col": 9,
      "analyzer": "seedflow",
      "message": "nondeterministic value flows"
    }
  ]
}
`
	if got != want {
		t.Errorf("JSON shape drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil, ""); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"count\": 0,\n  \"findings\": []\n}\n"
	if sb.String() != want {
		t.Errorf("empty report drifted: %q", sb.String())
	}
}

func TestWriteTextRelativizes(t *testing.T) {
	root := string(filepath.Separator) + "repo"
	var sb strings.Builder
	WriteText(&sb, sampleFindings(root), root)
	want := "pkg/a.go:7:2: [maporder] iteration order leaks\n" +
		"pkg/b.go:3:9: [seedflow] nondeterministic value flows\n"
	if sb.String() != want {
		t.Errorf("text output drifted:\n%s", sb.String())
	}
}
