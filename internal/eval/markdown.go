package eval

import (
	"fmt"
	"io"
	"strings"
)

// Markdown emitters for figures and tables, used by
// `cmd/experiments -format markdown` to produce EXPERIMENTS.md-ready
// blocks.

// FormatMarkdown writes the table as a GitHub-flavoured markdown table.
func (t Table) FormatMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(t.Header), " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(row), " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// FormatMarkdown writes the figure as one markdown table per series
// (x column plus one column per series, aligned on shared x values
// when all series share the same x grid, otherwise one table each).
func (f Figure) FormatMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", f.ID, f.Title)
	fmt.Fprintf(w, "*x: %s, y: %s*\n\n", f.XLabel, f.YLabel)
	if sharedGrid(f.Series) {
		header := []string{f.XLabel}
		for _, s := range f.Series {
			header = append(header, s.Name)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(header), " | "))
		sep := make([]string, len(header))
		for i := range sep {
			sep[i] = "---"
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
		for i := range f.Series[0].X {
			cells := []string{fmt.Sprintf("%.4g", f.Series[0].X[i])}
			for _, s := range f.Series {
				cells = append(cells, fmt.Sprintf("%.6g", s.Y[i]))
			}
			fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
		}
	} else {
		for _, s := range f.Series {
			fmt.Fprintf(w, "**%s**\n\n| %s | %s |\n| --- | --- |\n", s.Name, f.XLabel, f.YLabel)
			for i := range s.X {
				fmt.Fprintf(w, "| %.4g | %.6g |\n", s.X[i], s.Y[i])
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

func sharedGrid(ss []series) bool {
	if len(ss) == 0 {
		return false
	}
	for _, s := range ss[1:] {
		if len(s.X) != len(ss[0].X) {
			return false
		}
		for i := range s.X {
			if s.X[i] != ss[0].X[i] {
				return false
			}
		}
	}
	return true
}

func escapeCells(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return out
}
