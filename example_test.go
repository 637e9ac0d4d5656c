package assocmine_test

import (
	"fmt"

	"assocmine"
)

// The examples use tiny hand-written datasets so their output is
// deterministic; see examples/ for realistic scenarios.

func ExampleSimilarPairs() {
	// Rows are baskets, columns are items. Items 0 and 1 always appear
	// together but only in 2 of 8 baskets — high similarity, low
	// support.
	data, _ := assocmine.NewDatasetFromRows(4, [][]int{
		{0, 1}, {2}, {2, 3}, {0, 1}, {3}, {2}, {2, 3}, {3},
	})
	res, _ := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.BruteForce,
		Threshold: 0.6,
	})
	for _, p := range res.Pairs {
		fmt.Printf("(%d,%d) similarity %.2f\n", p.I, p.J, p.Similarity)
	}
	// Output:
	// (0,1) similarity 1.00
}

func ExampleSimilarPairs_rules() {
	// Column 0 implies column 1 in every row where it appears.
	data, _ := assocmine.NewDatasetFromRows(3, [][]int{
		{0, 1}, {0, 1}, {1}, {1, 2}, {2}, {0, 1},
	})
	res, _ := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.Rules,
		Threshold: 0.95,
		K:         200,
		Seed:      1,
	})
	for _, r := range res.Pairs {
		fmt.Printf("%d => %d confidence %.2f\n", r.I, r.J, r.Similarity)
	}
	// Output:
	// 0 => 1 confidence 1.00
}

func ExamplePairMeasures() {
	data, _ := assocmine.NewDatasetFromColumns(10, [][]int{
		{0, 1, 2, 3},
		{2, 3, 4, 5},
	})
	m, _ := assocmine.PairMeasures(data, 0, 1)
	fmt.Printf("jaccard %.2f confidence %.2f lift %.2f\n", m.Jaccard, m.Confidence, m.Interest)
	// Output:
	// jaccard 0.33 confidence 0.50 lift 1.25
}

func ExampleCluster() {
	// Three identical columns form one cluster; a fourth is unrelated.
	data, _ := assocmine.NewDatasetFromColumns(6, [][]int{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {4, 5},
	})
	res, _ := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.BruteForce, Threshold: 0.9,
	})
	for _, c := range assocmine.Cluster(data.NumCols(), res.Pairs, 0.9) {
		fmt.Println(c)
	}
	// Output:
	// [0 1 2]
}

func ExampleAnyOf() {
	// Column 0 equals the union of columns 1 and 2.
	data, _ := assocmine.NewDatasetFromColumns(8, [][]int{
		{0, 1, 4, 5},
		{0, 1},
		{4, 5},
	})
	sk, _ := assocmine.ComputeSketches(data, 64, 1, 0)
	ev := assocmine.NewExprEvaluator(sk)
	s, _ := ev.Similarity(assocmine.Col(0), assocmine.AnyOf(assocmine.Col(1), assocmine.Col(2)))
	fmt.Printf("similarity %.2f\n", s)
	// Output:
	// similarity 1.00
}

func ExampleMutualExclusions() {
	// Columns 0 and 1 split the baskets and never meet; column 2 meets
	// column 0 once where independence predicts twice, exactly
	// MaxLift·expected; column 4 holds exactly the support floor
	// (2 of 10 baskets) and column 3 falls below it.
	data, _ := assocmine.NewDatasetFromRows(5, [][]int{
		{0, 2}, {0}, {0}, {0}, {0},
		{1, 2}, {1, 2}, {1, 2}, {1, 4}, {1, 3, 4},
	})
	xs, _ := assocmine.MutualExclusions(data, assocmine.ExclusionConfig{
		MinSupport: 0.2, MaxLift: 0.5,
	})
	for _, x := range xs {
		fmt.Printf("(%d,%d) observed %v expected %v lift %v\n", x.I, x.J, x.Observed, x.Expected, x.Lift)
	}
	// Output:
	// (0,1) observed 0 expected 2.5 lift 0
	// (0,4) observed 0 expected 1 lift 0
	// (2,4) observed 0 expected 0.8 lift 0
	// (0,2) observed 1 expected 2 lift 0.5
}
