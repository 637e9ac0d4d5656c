// Quickstart: find similar column pairs in a tiny hand-written dataset
// with every algorithm, and mine a support-free high-confidence rule.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"assocmine"
)

func main() {
	// A toy market-basket table: rows are baskets, columns are items.
	// Items 0 and 1 ("caviar" and "vodka") are rare but always bought
	// together; items 2-4 are popular independent staples.
	items := []string{"caviar", "vodka", "bread", "milk", "beer"}
	var rows [][]int
	for b := 0; b < 1000; b++ {
		var basket []int
		if b%100 == 7 { // 1% of baskets: the rare pair
			basket = append(basket, 0, 1)
		}
		if b%3 == 0 {
			basket = append(basket, 2)
		}
		if b%4 == 0 {
			basket = append(basket, 3)
		}
		if b%5 == 0 {
			basket = append(basket, 4)
		}
		rows = append(rows, basket)
	}
	data, err := assocmine.NewDatasetFromRows(len(items), rows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d baskets x %d items, %d entries\n\n",
		data.NumRows(), data.NumCols(), data.Ones())

	// Find similar pairs with each algorithm. The rare caviar/vodka
	// pair has similarity 1.0 but support 1% — a-priori-style support
	// pruning at, say, 5% would never see it.
	for _, algo := range []assocmine.Algorithm{
		assocmine.BruteForce, assocmine.MinHash, assocmine.KMinHash,
		assocmine.MinLSH, assocmine.HammingLSH,
	} {
		res, err := assocmine.SimilarPairs(data, assocmine.Config{
			Algorithm: algo,
			Threshold: 0.8,
			Seed:      42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v found %d pair(s):\n", algo, len(res.Pairs))
		for _, p := range res.Pairs {
			fmt.Printf("  %s <-> %s  (similarity %.2f, support %.1f%%)\n",
				items[p.I], items[p.J], p.Similarity, 100*data.Density(p.I))
		}
	}

	// Mine directed high-confidence rules without any support pruning.
	rules, err := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.Rules,
		Threshold: 0.95,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhigh-confidence rules (conf >= 0.95):\n")
	for _, r := range rules.Pairs {
		fmt.Printf("  %s => %s  (confidence %.2f)\n", items[r.I], items[r.J], r.Similarity)
	}
}
