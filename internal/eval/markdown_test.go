package eval

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableFormatMarkdown(t *testing.T) {
	tb := Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "b|c"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tb.FormatMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### x — demo", "| a | b\\|c |", "| --- | --- |", "| 1 | 2 |", "> a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFigureFormatMarkdownSharedGrid(t *testing.T) {
	f := Figure{
		ID: "f", Title: "fig", XLabel: "x", YLabel: "y",
		Series: []series{
			{Name: "s1", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "s2", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var buf bytes.Buffer
	f.FormatMarkdown(&buf)
	out := buf.String()
	if !strings.Contains(out, "| x | s1 | s2 |") {
		t.Errorf("shared-grid header missing:\n%s", out)
	}
	if !strings.Contains(out, "| 1 | 10 | 30 |") {
		t.Errorf("shared-grid row missing:\n%s", out)
	}
}

func TestFigureFormatMarkdownSeparateGrids(t *testing.T) {
	f := Figure{
		ID: "f", Title: "fig", XLabel: "x", YLabel: "y",
		Series: []series{
			{Name: "s1", X: []float64{1}, Y: []float64{10}},
			{Name: "s2", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
		Notes: []string{"n"},
	}
	var buf bytes.Buffer
	f.FormatMarkdown(&buf)
	out := buf.String()
	if !strings.Contains(out, "**s1**") || !strings.Contains(out, "**s2**") {
		t.Errorf("per-series tables missing:\n%s", out)
	}
	if !strings.Contains(out, "> n") {
		t.Errorf("note missing:\n%s", out)
	}
}
