package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", "x")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") {
		t.Errorf("missing cells in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", 2)
	var sb strings.Builder
	tb.CSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("missing header: %q", out)
	}
}

func TestCSVQuotesQuotes(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(`say "hi"`)
	var sb strings.Builder
	tb.CSV(&sb)
	if !strings.Contains(sb.String(), `"say ""hi"""`) {
		t.Errorf("quotes not escaped: %q", sb.String())
	}
}
