// Expressions: the Section 7 extensions in one place. On a synthetic
// store catalogue we score disjunctive and conjunctive rules from one
// sketch pass (no data re-scans), surface an anticorrelated product
// pair (mutual exclusion), and report the full measure panel for the
// most interesting pair.
//
// Run with: go run ./examples/expressions
package main

import (
	"fmt"
	"log"

	"assocmine"
)

func main() {
	// A grocery catalogue: columns are products.
	const (
		espresso = iota // bought by coffee people
		mokaPot         // bought by (other) coffee people
		grinder         // bought by all coffee people
		teapot          // bought by tea people — never with espresso
		looseTea        // tea people again
		bread           // everyone
		numItems
	)
	names := []string{"espresso", "moka-pot", "grinder", "teapot", "loose-tea", "bread"}

	rows := make([][]int, 30000)
	seed := uint64(7)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	frac := func() float64 { return float64(next()>>11) / (1 << 53) }
	for r := range rows {
		var basket []int
		switch {
		case frac() < 0.04: // espresso household
			basket = append(basket, espresso, grinder)
		case frac() < 0.04: // moka household
			basket = append(basket, mokaPot, grinder)
		case frac() < 0.06: // tea household
			basket = append(basket, teapot)
			if frac() < 0.8 {
				basket = append(basket, looseTea)
			}
		}
		if frac() < 0.3 {
			basket = append(basket, bread)
		}
		rows[r] = basket
	}
	data, err := assocmine.NewDatasetFromRows(numItems, rows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalogue: %d baskets x %d products\n\n", data.NumRows(), data.NumCols())

	// One sketch pass answers every expression query below.
	sk, err := assocmine.ComputeSketches(data, 512, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	ev := assocmine.NewExprEvaluator(sk)

	// Disjunctive rule: grinder => espresso ∨ moka-pot. Neither single
	// rule holds (each coffee camp is half the grinder buyers), but the
	// disjunction does.
	confEsp, _ := ev.Confidence(assocmine.Col(grinder), assocmine.Col(espresso))
	confOr, err := ev.Confidence(assocmine.Col(grinder),
		assocmine.AnyOf(assocmine.Col(espresso), assocmine.Col(mokaPot)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conf(grinder => espresso)              = %.2f\n", confEsp)
	fmt.Printf("conf(grinder => espresso ∨ moka-pot)   = %.2f   <- the §7 disjunctive rule\n\n", confOr)

	// Conjunctive cardinality: teapot ∧ loose-tea buyers.
	both, err := ev.Cardinality(assocmine.AllOf(assocmine.Col(teapot), assocmine.Col(looseTea)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated |teapot ∧ loose-tea| = %.0f (exact %d)\n\n",
		both, intersection(rows, teapot, looseTea))

	// Mutual exclusion: espresso and teapot households never overlap.
	exclusions, err := assocmine.MutualExclusions(data, assocmine.ExclusionConfig{
		MinSupport: 0.02, MaxLift: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mutually exclusive product pairs (lift << 1):")
	for _, x := range exclusions {
		fmt.Printf("  %s / %s: observed %.0f of expected %.0f co-purchases (lift %.2f)\n",
			names[x.I], names[x.J], x.Observed, x.Expected, x.Lift)
	}

	// Full measure panel for the strongest pair.
	meas, err := assocmine.PairMeasures(data, teapot, looseTea)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasure panel for (teapot, loose-tea):\n")
	fmt.Printf("  jaccard %.2f  confidence %.2f  lift %.1f  conviction %.2f  chi² %.0f\n",
		meas.Jaccard, meas.Confidence, meas.Interest, meas.Conviction, meas.ChiSquare)
}

func intersection(rows [][]int, a, b int) int {
	n := 0
	for _, row := range rows {
		hasA, hasB := false, false
		for _, c := range row {
			if c == a {
				hasA = true
			}
			if c == b {
				hasB = true
			}
		}
		if hasA && hasB {
			n++
		}
	}
	return n
}
