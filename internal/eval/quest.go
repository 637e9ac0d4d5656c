package eval

import (
	"fmt"

	"assocmine"
	"assocmine/internal/gen"
)

// QuestExperiment runs the baseline on its home turf — an IBM-Quest
// market-basket workload — and contrasts it with the signature schemes:
// a-priori finds the frequent planted patterns efficiently, but every
// planted pattern whose support sits below the feasible threshold is
// invisible to it, while M-LSH surfaces the high-similarity pairs among
// them at a fraction of the cost.
func QuestExperiment(sc Scale) (Table, error) {
	q, err := gen.GenerateQuest(gen.QuestConfig{
		Transactions: sc.SynRows * 4,
		Items:        sc.SynCols,
		// Fewer patterns than items and mild corruption, so an item
		// belongs to ~one pattern and co-pattern pairs carry real
		// Jaccard similarity for the schemes to find.
		NumPatterns:    sc.SynCols / 4,
		CorruptionMean: 0.3,
		Seed:           sc.Seed + 7,
	})
	if err != nil {
		return Table{}, err
	}
	m := q.Matrix
	d := assocmine.WrapMatrix(m)

	t := Table{
		ID:    "quest",
		Title: "A-priori vs. M-LSH on an IBM-Quest market-basket workload",
		Header: []string{"approach", "support/threshold", "pairs found", "planted pattern pairs",
			"below-floor pattern pairs", "time"},
		Notes: []string{
			"'planted pattern pairs' = co-pattern item pairs with similarity >= 0.3 recovered",
			"'below-floor pattern pairs' = recovered pairs whose support is under the a-priori floor",
		},
	}

	// Inventory of interesting planted pairs: co-pattern item pairs
	// with real similarity.
	type ppair struct{ i, j int }
	interesting := map[ppair]bool{}
	for _, pat := range q.Patterns {
		for a := 0; a < len(pat); a++ {
			for b := a + 1; b < len(pat); b++ {
				i, j := int(pat[a]), int(pat[b])
				if m.Similarity(i, j) >= 0.3 {
					interesting[ppair{i, j}] = true
				}
			}
		}
	}

	const supportFloor = 0.005 // a-priori's feasible floor on this workload
	below := func(i, j int) bool {
		return m.Density(i) < supportFloor || m.Density(j) < supportFloor
	}
	countPlanted := func(found []assocmine.Pair) (planted, belowFloor int) {
		for _, p := range found {
			key := ppair{p.I, p.J}
			if p.J < p.I {
				key = ppair{p.J, p.I}
			}
			if interesting[key] {
				planted++
				if below(p.I, p.J) {
					belowFloor++
				}
			}
		}
		return planted, belowFloor
	}

	// A-priori at its feasible floor.
	ap, err := assocmine.SimilarPairs(d, assocmine.Config{
		Algorithm: assocmine.Apriori, Threshold: 0.3, MinSupport: supportFloor,
	})
	if err != nil {
		return Table{}, err
	}
	apPlanted, apBelow := countPlanted(ap.Pairs)
	t.Rows = append(t.Rows, []string{
		"a-priori",
		fmt.Sprintf("support %.2f%%", supportFloor*100),
		fmt.Sprintf("%d", len(ap.Pairs)),
		fmt.Sprintf("%d/%d", apPlanted, len(interesting)),
		fmt.Sprintf("%d", apBelow),
		fmtDur(ap.Stats.Total()),
	})

	// M-LSH with no support requirement.
	mlsh, err := assocmine.SimilarPairs(d, assocmine.Config{
		Algorithm: assocmine.MinLSH, Threshold: 0.3, K: 120, R: 3, L: 40, Seed: 5,
	})
	if err != nil {
		return Table{}, err
	}
	mPlanted, mBelow := countPlanted(mlsh.Pairs)
	t.Rows = append(t.Rows, []string{
		"M-LSH",
		"similarity 0.30",
		fmt.Sprintf("%d", len(mlsh.Pairs)),
		fmt.Sprintf("%d/%d", mPlanted, len(interesting)),
		fmt.Sprintf("%d", mBelow),
		fmtDur(mlsh.Stats.Total()),
	})
	return t, nil
}
