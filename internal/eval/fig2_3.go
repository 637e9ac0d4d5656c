package eval

import (
	"fmt"

	"assocmine/internal/lsh"
)

// Fig2 reproduces the filter-function plots of Fig. 2: (a) P_{r,l}(s)
// sharpening toward a unit step as r and l grow, and (b) Q_{r,l,k}
// approximating P_{r,l} with only k min-hash values (the paper's
// example: Q_{20,20,40} approximating P_{20,20}, which would need 400
// values).
func Fig2() []Figure {
	grid := make([]float64, 0, 101)
	for s := 0.0; s <= 1.0001; s += 0.01 {
		grid = append(grid, s)
	}
	eval := func(f func(s float64) float64) []float64 {
		y := make([]float64, len(grid))
		for i, s := range grid {
			y[i] = f(s)
		}
		return y
	}

	a := Figure{
		ID:     "fig2a",
		Title:  "Filter function P_{r,l}(s) for growing r and l",
		XLabel: "similarity s",
		YLabel: "collision probability",
	}
	for _, rl := range [][2]int{{2, 2}, {5, 5}, {10, 10}, {20, 20}} {
		r, l := rl[0], rl[1]
		a.Series = append(a.Series, series{
			Name: fmt.Sprintf("P_{%d,%d}", r, l),
			X:    grid,
			Y:    eval(func(s float64) float64 { return lsh.ProbAtLeastOnce(s, r, l) }),
		})
	}
	a.Notes = append(a.Notes, "larger (r,l) approaches the unit step at the implicit threshold")

	b := Figure{
		ID:     "fig2b",
		Title:  "Q_{20,20,40} approximating P_{20,20} with 40 instead of 400 min-hash values",
		XLabel: "similarity s",
		YLabel: "collision probability",
		Series: []series{
			{Name: "P_{20,20}", X: grid,
				Y: eval(func(s float64) float64 { return lsh.ProbAtLeastOnce(s, 20, 20) })},
			{Name: "Q_{20,20,40}", X: grid,
				Y: eval(func(s float64) float64 { return lsh.SampledCollisionProb(s, 20, 20, 40) })},
			{Name: "Q_{20,20,100}", X: grid,
				Y: eval(func(s float64) float64 { return lsh.SampledCollisionProb(s, 20, 20, 100) })},
		},
		Notes: []string{"P is always sharper; Q sharpens as k grows"},
	}
	return []Figure{a, b}
}

// Fig3 reproduces the similarity-distribution histogram of the web-log
// dataset (the paper's Sun data): (a) the full distribution dominated
// by near-zero pairs, (b) the zoomed tail of interesting similarities.
func Fig3(w *Workloads) ([]Figure, error) {
	edges := defaultEdges()
	counts, err := histogram(w.web.Data.Matrix(), edges)
	if err != nil {
		return nil, err
	}
	full := Figure{
		ID:     "fig3a",
		Title:  "Similarity distribution of the web-log data (all pairs)",
		XLabel: "similarity bucket midpoint",
		YLabel: "number of column pairs",
	}
	var fs series
	fs.Name = "pairs"
	for b := 0; b+1 < len(edges); b++ {
		fs.X = append(fs.X, (edges[b]+edges[b+1])/2)
		fs.Y = append(fs.Y, float64(counts[b]))
	}
	full.Series = []series{fs}
	full.Notes = []string{fmt.Sprintf("%.4f%% of pairs have similarity >= 0.1",
		100*float64(sumI64(counts[1:]))/float64(sumI64(counts)))}

	zoom := Figure{
		ID:     "fig3b",
		Title:  "Similarity distribution, zoomed to the region of interest (s >= 0.1)",
		XLabel: "similarity bucket midpoint",
		YLabel: "number of column pairs",
	}
	var zs series
	zs.Name = "pairs"
	for b := 1; b+1 < len(edges); b++ {
		zs.X = append(zs.X, (edges[b]+edges[b+1])/2)
		zs.Y = append(zs.Y, float64(counts[b]))
	}
	zoom.Series = []series{zs}
	return []Figure{full, zoom}, nil
}

func sumI64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
