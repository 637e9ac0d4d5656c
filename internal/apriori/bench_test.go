package apriori

import (
	"testing"

	"assocmine/internal/gen"
)

// BenchmarkCounting mines the frequent pairs of a Quest workload, the
// market-basket structure a-priori was designed for.
func BenchmarkCounting(b *testing.B) {
	q, err := gen.GenerateQuest(gen.QuestConfig{Transactions: 20000, Items: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := q.Matrix.Stream()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(src, Options{MinSupport: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}
