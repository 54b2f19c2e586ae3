package vet

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Output formatting. JSON output is the machine
// interface: stable field order (struct order below), paths relativized to
// a caller-supplied root so golden files and downstream tooling are
// machine-independent, findings pre-sorted by RunAnalyzers.

// JSONFinding is the wire form of one finding.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the top-level JSON document.
type jsonReport struct {
	Count    int           `json:"count"`
	Findings []JSONFinding `json:"findings"`
}

// toJSONFindings converts findings, relativizing paths against root when
// possible (absolute paths stay absolute only if they escape root).
func toJSONFindings(findings []Finding, root string) []JSONFinding {
	out := make([]JSONFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, JSONFinding{
			File:     relativize(f.Pos.Filename, root),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	return out
}

// relativize rewrites path relative to root when that yields a cleaner,
// in-tree path; otherwise the original is returned unchanged.
func relativize(path, root string) string {
	if root == "" || !filepath.IsAbs(path) {
		return path
	}
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

// WriteText renders findings one per line in compiler format.
func WriteText(w io.Writer, findings []Finding, root string) {
	for _, f := range findings {
		pos := fmt.Sprintf("%s:%d:%d", relativize(f.Pos.Filename, root), f.Pos.Line, f.Pos.Column)
		fmt.Fprintf(w, "%s: [%s] %s\n", pos, f.Analyzer, f.Message)
	}
}

// WriteJSON renders the findings document with stable field order and a
// trailing newline.
func WriteJSON(w io.Writer, findings []Finding, root string) error {
	rep := jsonReport{Count: len(findings), Findings: toJSONFindings(findings, root)}
	if rep.Findings == nil {
		rep.Findings = []JSONFinding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// sortFindings orders findings fully deterministically: file, line,
// column, analyzer, message.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
