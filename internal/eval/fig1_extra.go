package eval

import (
	"fmt"

	"assocmine"
)

// Fig1 reproduces the qualitative experiment of Section 2 / Fig. 1:
// mining the news corpus for similar word pairs and recovering the
// planted collocations and the word cluster, despite their very low
// support.
func Fig1(w *Workloads) (Table, error) {
	res, err := assocmine.SimilarPairs(w.news.Data, assocmine.Config{
		Algorithm: assocmine.MinHash, Threshold: 0.5, K: 150, Seed: 17,
	})
	if err != nil {
		return Table{}, err
	}
	plantedSet := map[[2]int]bool{}
	for _, p := range w.news.PlantedPairs {
		plantedSet[p] = true
	}
	clusterSet := map[int]bool{}
	for _, c := range w.news.ClusterCols {
		clusterSet[c] = true
	}
	t := Table{
		ID:     "fig1",
		Title:  "Similar word pairs mined from the news corpus (similarity >= 0.5)",
		Header: []string{"word A", "word B", "similarity", "support A", "support B", "kind"},
	}
	foundPlanted, foundCluster := 0, 0
	for _, p := range res.Pairs {
		kind := "background"
		if plantedSet[[2]int{p.I, p.J}] || plantedSet[[2]int{p.J, p.I}] {
			kind = "planted collocation"
			foundPlanted++
		} else if clusterSet[p.I] && clusterSet[p.J] {
			kind = "planted cluster"
			foundCluster++
		}
		t.Rows = append(t.Rows, []string{
			w.news.Word(p.I), w.news.Word(p.J),
			fmt.Sprintf("%.3f", p.Similarity),
			fmt.Sprintf("%.4f%%", 100*w.news.Data.Density(p.I)),
			fmt.Sprintf("%.4f%%", 100*w.news.Data.Density(p.J)),
			kind,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("recovered %d/%d planted collocations and %d intra-cluster pairs; all supports are far below a-priori-friendly thresholds",
			foundPlanted, len(w.news.PlantedPairs), foundCluster))
	return t, nil
}

// SyntheticExperiment reproduces the Section 5 synthetic-data check:
// every algorithm must recover the planted pairs in each similarity
// band ("all algorithms behave similarly" on synthetic data).
func SyntheticExperiment(w *Workloads) (Table, error) {
	t := Table{
		ID:     "synthetic",
		Title:  "Planted-pair recall per similarity band on the synthetic data (cutoff 0.45)",
		Header: []string{"algorithm", "band 45-55", "band 55-65", "band 65-75", "band 75-85", "band 85-95", "false pos"},
		Notes:  []string{"recall = planted pairs found / planted in band; verification removes all false positives"},
	}
	bands := [][2]float64{{0.45, 0.55}, {0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}}
	const cutoff = 0.45
	truth, err := newGroundTruth(w.syn.Matrix(), 0.1)
	if err != nil {
		return Table{}, err
	}
	configs := []assocmine.Config{
		{Algorithm: assocmine.MinHash, Threshold: cutoff, K: 150, Seed: 5},
		{Algorithm: assocmine.KMinHash, Threshold: cutoff, K: 150, Seed: 5},
		{Algorithm: assocmine.MinLSH, Threshold: cutoff, K: 150, R: 3, L: 50, Seed: 5},
		{Algorithm: assocmine.HammingLSH, Threshold: cutoff, R: 6, L: 20, Seed: 5},
	}
	for _, cfg := range configs {
		res, err := assocmine.SimilarPairs(w.syn, cfg)
		if err != nil {
			return Table{}, err
		}
		found := map[[2]int]bool{}
		fp := 0
		for _, p := range res.Pairs {
			found[[2]int{p.I, p.J}] = true
			if p.Similarity < cutoff {
				fp++
			}
		}
		row := []string{cfg.Algorithm.String()}
		for _, band := range bands {
			got, total := 0, 0
			for _, pl := range w.synPlanted {
				s := w.syn.Similarity(pl.I, pl.J)
				if s < band[0] || s >= band[1] || s < cutoff {
					continue
				}
				total++
				if found[[2]int{pl.I, pl.J}] {
					got++
				}
			}
			if total == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, fmt.Sprintf("%d/%d", got, total))
			}
		}
		row = append(row, fmt.Sprintf("%d", fp))
		t.Rows = append(t.Rows, row)
	}
	_ = truth
	return t, nil
}

// RulesExperiment reproduces Section 6: high-confidence rule mining on
// the news corpus; planted collocations must surface as (bidirectional)
// high-confidence rules.
func RulesExperiment(w *Workloads) (Table, error) {
	res, _, err := newsRules(w)
	if err != nil {
		return Table{}, err
	}
	plantedSet := map[[2]int]bool{}
	for _, p := range w.news.PlantedPairs {
		plantedSet[p] = true
		plantedSet[[2]int{p[1], p[0]}] = true
	}
	t := Table{
		ID:     "rules",
		Title:  "High-confidence rules without support (Section 6), confidence >= 0.75",
		Header: []string{"rule", "confidence", "support(antecedent)", "planted?"},
	}
	foundPlanted := 0
	for _, r := range res.Pairs {
		planted := plantedSet[[2]int{r.I, r.J}]
		if planted {
			foundPlanted++
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s => %s", w.news.Word(r.I), w.news.Word(r.J)),
			fmt.Sprintf("%.3f", r.Similarity),
			fmt.Sprintf("%.4f%%", 100*w.news.Data.Density(r.I)),
			fmt.Sprintf("%v", planted),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d directed planted rules recovered out of %d candidate rules mined",
		foundPlanted, len(res.Pairs)))
	return t, nil
}

// newsRules is Section 6's run on the news corpus: the rules of
// confidence at least 0.75, verified, over the MH sketch (k = 200,
// seed 23) it returns too. The first experiment that asks folds the
// sketch; §6's and §7's tables share it.
func newsRules(w *Workloads) (*assocmine.Result, *assocmine.Signatures, error) {
	if w.newsSig == nil {
		sig, err := assocmine.ComputeSignatures(w.news.Data, 200, 23, 0)
		if err != nil {
			return nil, nil, err
		}
		w.newsSig = sig
	}
	res, err := assocmine.SimilarPairsWith(w.news.Data, w.newsSig, assocmine.Config{
		Algorithm: assocmine.Rules, Threshold: 0.75,
	})
	return res, w.newsSig, err
}

// The composite table's thresholds: a conjunction keeps two §6 rules
// of one antecedent that both reach compositeAndConf, and a disjunction
// keeps c_i => c_j ∨ c_j' when the similarity of c_i and c_j ∨ c_j'
// reaches compositeOrSim.
const compositeAndConf, compositeOrSim = 0.9, 0.5

// CompositeExperiment reproduces Section 7's composite rules over the
// §6 run of RulesExperiment: conjunctions c_i => c_j ∧ c_j' paired from
// its verified rules, and disjunctions c_i => c_j ∨ c_j' whose
// consequents are drawn from each antecedent's own §6 consequents.
func CompositeExperiment(w *Workloads) (Table, error) {
	res, sig, err := newsRules(w)
	if err != nil {
		return Table{}, err
	}
	ands, err := assocmine.AndRules(res.Pairs, compositeAndConf)
	if err != nil {
		return Table{}, err
	}
	shortlist := map[int][]int{}
	for _, r := range res.Pairs {
		shortlist[r.I] = append(shortlist[r.I], r.J)
	}
	ors, err := assocmine.OrRules(w.news.Data, sig, shortlist, compositeOrSim)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "composite",
		Title:  "Composite rules over the Section 6 rules (Section 7), first ten of each kind",
		Header: []string{"rule", "score"},
		Notes: []string{
			fmt.Sprintf("%d conjunctive rules with both confidences >= %.2f (score: the smaller confidence)", len(ands), compositeAndConf),
			fmt.Sprintf("%d disjunctive rules with similarity >= %.2f to the OR of the consequents (score: that similarity)", len(ors), compositeOrSim),
		},
	}
	for _, r := range ands[:min(10, len(ands))] {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s => %s AND %s", w.news.Word(r.From), w.news.Word(r.To[0]), w.news.Word(r.To[1])),
			fmt.Sprintf("%.3f", r.Estimate),
		})
	}
	for _, r := range ors[:min(10, len(ors))] {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s => %s OR %s", w.news.Word(r.From), w.news.Word(r.To[0]), w.news.Word(r.To[1])),
			fmt.Sprintf("%.3f", r.Similarity),
		})
	}
	return t, nil
}
