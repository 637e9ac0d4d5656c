// Weblog: copy detection on web-server logs, the paper's Sun
// Microsystems scenario (Section 5). Columns are URLs, rows are client
// IPs; the similar pairs the algorithms surface are embedded
// gif/applet resources that load together with their parent page —
// exactly the explanation the paper gives for its own findings.
//
// This example also demonstrates the input-sensitive (r, l) parameter
// optimizer of Section 4.1: the similarity distribution is estimated
// from a small column sample, then Min-LSH parameters are chosen to
// meet explicit false-negative/false-positive budgets.
//
// Run with: go run ./examples/weblog
package main

import (
	"fmt"
	"log"

	"assocmine"
)

func main() {
	web, err := assocmine.GenerateWebLog(assocmine.WebLogOptions{
		Clients: 20000,
		URLs:    2000,
		Seed:    3,
	})
	if err != nil {
		log.Fatal(err)
	}
	data := web.Data
	fmt.Printf("web log: %d client IPs x %d URLs, density %.4f%%\n\n",
		data.NumRows(), data.NumCols(),
		100*float64(data.Ones())/float64(data.NumRows()*data.NumCols()))

	// Estimate the similarity distribution by sampling columns, then
	// let the optimizer pick (r, l) for a 1%-FN / bounded-FP target.
	params, err := assocmine.OptimizeLSH(data, assocmine.LSHBudget{
		Threshold:     0.7,
		SampleColumns: 200,
		MaxFalseNeg:   5,
		MaxFalsePos:   2000,
		Seed:          9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer chose r=%d, l=%d (k=%d min-hashes; predicted FN=%.1f FP=%.0f)\n\n",
		params.R, params.L, params.R*params.L, params.PredictedFN, params.PredictedFP)

	res, err := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.MinLSH,
		Threshold: 0.7,
		K:         params.R * params.L,
		R:         params.R,
		L:         params.L,
		Seed:      5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("M-LSH found %d similar URL pairs\n", len(res.Pairs))

	// Check the findings against the known embedded-resource groups.
	groupOf := map[int]int{}
	for g, cols := range web.Groups {
		for _, c := range cols {
			groupOf[c] = g
		}
	}
	sameGroup := 0
	for _, p := range res.Pairs {
		gi, okI := groupOf[p.I]
		gj, okJ := groupOf[p.J]
		if okI && okJ && gi == gj {
			sameGroup++
		}
	}
	fmt.Printf("%d/%d found pairs are embedded resources of the same parent page\n",
		sameGroup, len(res.Pairs))
	show := res.Pairs
	if len(show) > 10 {
		show = show[:10]
	}
	for _, p := range show {
		fmt.Printf("  /url%04d <-> /url%04d  sim=%.2f (fetched by %d and %d clients)\n",
			p.I, p.J, p.Similarity, data.ColumnSize(p.I), data.ColumnSize(p.J))
	}
}
