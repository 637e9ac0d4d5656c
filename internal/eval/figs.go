package eval

import (
	"fmt"
	"io"
	"strings"

	"assocmine"
)

// series is one labelled line of a figure.
type series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced paper figure: one or more series plus notes.
type Figure struct {
	ID     string // e.g. "fig5a"
	Title  string
	XLabel string
	YLabel string
	Series []series
	Notes  []string
}

// Table is a reproduced paper table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format writes the figure as aligned text series.
func (f Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "   x-axis: %s   y-axis: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "  series %q\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(w, "    %10.4f  %12.6g\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Format writes the table as aligned text.
func (t Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(b.String(), " "))
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale sizes the generated workloads. The paper's real datasets (13k
// URLs x 0.2M clients; Reuters articles) are proprietary, so the
// experiments run on the generators at a chosen scale; Small keeps unit
// tests and CI fast, Full approximates the paper's regime.
type Scale struct {
	WebClients, WebURLs int
	NewsDocs, NewsVocab int
	SynRows, SynCols    int
	Seed                uint64
}

// Small is the test/CI scale.
func SmallScale() Scale {
	return Scale{
		WebClients: 2000, WebURLs: 400,
		NewsDocs: 4000, NewsVocab: 800,
		SynRows: 3000, SynCols: 300,
		Seed: 1,
	}
}

// Full approximates the paper's dataset sizes while staying laptop-
// friendly (the Sun data's 0.2M rows and 13k columns would make the
// brute-force ground-truth pass the bottleneck).
func FullScale() Scale {
	return Scale{
		WebClients: 20000, WebURLs: 3000,
		NewsDocs: 30000, NewsVocab: 6000,
		SynRows: 10000, SynCols: 2000,
		Seed: 1,
	}
}

// Workloads caches the generated datasets and ground truths shared by
// the figure drivers.
type Workloads struct {
	web      *assocmine.WebLogDataset
	WebTruth *GroundTruth

	news *assocmine.NewsDataset

	syn        *assocmine.Dataset
	synPlanted []assocmine.PlantedPair

	newsSig *assocmine.Signatures // newsRules' sketch, once folded
}

// NewWorkloads generates every dataset for the scale. Ground truth for
// the web data (the quality-experiment substrate) is computed eagerly;
// the rest lazily by the drivers that need it.
func NewWorkloads(sc Scale) (*Workloads, error) {
	w := &Workloads{}
	web, err := assocmine.GenerateWebLog(assocmine.WebLogOptions{
		Clients: sc.WebClients, URLs: sc.WebURLs, Seed: sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: weblog: %w", err)
	}
	w.web = web
	truth, err := newGroundTruth(web.Data.Matrix(), 0.1)
	if err != nil {
		return nil, fmt.Errorf("eval: weblog truth: %w", err)
	}
	w.WebTruth = truth

	news, err := assocmine.GenerateNews(assocmine.NewsOptions{
		Docs: sc.NewsDocs, Vocab: sc.NewsVocab, Seed: sc.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: news: %w", err)
	}
	w.news = news

	syn, planted, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{
		Rows: sc.SynRows, Cols: sc.SynCols, Seed: sc.Seed + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: synthetic: %w", err)
	}
	w.syn = syn
	w.synPlanted = planted
	return w, nil
}

// scurveSeries converts an sCurve to a plot series named name.
func scurveSeries(name string, sc sCurve) series {
	s := series{Name: name}
	for b := 0; b+1 < len(sc.Edges); b++ {
		if sc.Edges[b] < 0.1 {
			continue // skip the giant near-zero bucket
		}
		s.X = append(s.X, sc.mid(b))
		s.Y = append(s.Y, sc.ratio(b))
	}
	return s
}

func ms(d interface{ Seconds() float64 }) float64 {
	return d.Seconds() * 1000
}
