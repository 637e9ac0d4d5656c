// News: the paper's Section 2 scenario. Mine a news corpus for word
// pairs that co-occur with high similarity but very low support — the
// "Dalai Lama" / "Beluga caviar" collocations of Fig. 1 — and compare
// against the a-priori baseline, which needs support pruning so
// aggressive it loses exactly those pairs (Fig. 4).
//
// Run with: go run ./examples/news
package main

import (
	"errors"
	"fmt"
	"log"

	"assocmine"
)

func main() {
	corpus, err := assocmine.GenerateNews(assocmine.NewsOptions{
		Docs:  20000,
		Vocab: 3000,
		Seed:  7,
	})
	if err != nil {
		log.Fatal(err)
	}
	data := corpus.Data
	fmt.Printf("news corpus: %d documents, %d words, %.4f%% dense\n\n",
		data.NumRows(), data.NumCols(),
		100*float64(data.Ones())/float64(data.NumRows()*data.NumCols()))

	// Min-LSH: the paper's fastest scheme.
	res, err := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.MinLSH,
		Threshold: 0.6,
		K:         100, R: 5, L: 20,
		Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("M-LSH found %d similar word pairs:\n", len(res.Pairs))
	planted := map[[2]int]bool{}
	for _, p := range corpus.PlantedPairs {
		planted[p] = true
		planted[[2]int{p[1], p[0]}] = true
	}
	recovered := func(found []assocmine.Pair) int {
		n := 0
		for _, p := range found {
			if planted[[2]int{p.I, p.J}] {
				n++
			}
		}
		return n
	}
	for _, p := range res.Pairs {
		tag := ""
		if planted[[2]int{p.I, p.J}] {
			tag = "  <- Fig. 1 collocation"
		}
		fmt.Printf("  (%s, %s)  sim=%.2f support=%.3f%%%s\n",
			corpus.Word(p.I), corpus.Word(p.J), p.Similarity,
			100*data.Density(p.I), tag)
	}
	fmt.Printf("recovered %d/%d planted collocations\n\n", recovered(res.Pairs), len(corpus.PlantedPairs))

	// The word cluster (the paper's chess-event example): pairs within
	// the cluster are mutually similar.
	fmt.Println("planted cluster similarities (the paper's chess cluster):")
	for i := 0; i < len(corpus.ClusterCols); i++ {
		for j := i + 1; j < len(corpus.ClusterCols); j++ {
			a, b := corpus.ClusterCols[i], corpus.ClusterCols[j]
			fmt.Printf("  (%s, %s): %.2f\n", corpus.Word(a), corpus.Word(b), data.Similarity(a, b))
		}
	}

	// A-priori needs support >= ~0.5% here just to fit in memory, but
	// the planted collocations live well below that support.
	fmt.Println("\na-priori comparison:")
	for _, support := range []float64{0.0005, 0.005, 0.02} {
		ap, err := assocmine.SimilarPairs(data, assocmine.Config{
			Algorithm:    assocmine.Apriori,
			Threshold:    0.6,
			MinSupport:   support,
			MemoryBudget: 8 << 20,
		})
		switch {
		case errors.Is(err, assocmine.ErrAprioriMemory):
			fmt.Printf("  support %.2f%%: out of memory (the Fig. 4 '-' row)\n", 100*support)
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Printf("  support %.2f%%: %d pairs, %d/%d planted collocations recovered (support pruning discards the rest)\n",
				100*support, len(ap.Pairs), recovered(ap.Pairs), len(corpus.PlantedPairs))
		}
	}
}
