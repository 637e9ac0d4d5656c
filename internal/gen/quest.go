package gen

import (
	"fmt"
	"sort"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// QuestConfig parameterises an IBM-Quest-style synthetic transaction
// generator, the workload family ("T10.I4.D100K" etc.) of the a-priori
// papers the baseline implements [Agrawal & Srikant, VLDB '94]. Maximal
// potentially-frequent itemsets are drawn first; transactions are then
// assembled from those patterns with corruption, producing realistic
// market-basket data with genuine frequent-itemset structure for the
// a-priori comparison — and, with the default skewed pattern weights,
// plenty of low-support structure the signature algorithms can mine
// below a-priori's reach.
type QuestConfig struct {
	// Transactions (rows) and Items (columns).
	Transactions, Items int
	// NumPatterns is L, the number of maximal potentially-frequent
	// itemsets. Quest uses roughly 2 patterns per item (L=2000 for
	// N=1000); default 2*Items capped below at 20. Each pattern then
	// lands in a small fraction of transactions, which is what gives
	// pattern item pairs their high lift.
	NumPatterns int
	// CorruptionMean is the mean corruption level: the fraction of a
	// pattern's items dropped when it is inserted. Default 0.5 (the
	// Quest default).
	CorruptionMean float64
	Seed           uint64
}

// The classic T10.I4 shape: questTxLen is T, the mean basket size
// (Poisson), and questPatternLen is I, the mean maximal-pattern size
// (Poisson, minimum 2).
const (
	questTxLen      = 10
	questPatternLen = 4
)

// Quest holds the generated transactions plus the planted patterns
// (for recall scoring).
type Quest struct {
	Matrix   *matrix.Matrix
	Patterns [][]int32 // sorted item sets
}

func (c *QuestConfig) setDefaults() error {
	if c.Transactions <= 0 || c.Items <= 0 {
		return fmt.Errorf("gen: transactions and items must be positive, got %dx%d", c.Transactions, c.Items)
	}
	if c.NumPatterns == 0 {
		c.NumPatterns = 2 * c.Items
		if c.NumPatterns < 20 {
			c.NumPatterns = 20
		}
	}
	if c.NumPatterns < 1 {
		return fmt.Errorf("gen: NumPatterns must be positive")
	}
	if c.CorruptionMean == 0 {
		c.CorruptionMean = 0.5
	}
	if c.CorruptionMean < 0 || c.CorruptionMean >= 1 {
		return fmt.Errorf("gen: CorruptionMean must be in [0,1)")
	}
	return nil
}

// GenerateQuest builds the dataset.
func GenerateQuest(cfg QuestConfig) (*Quest, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.NewSplitMix64(cfg.Seed)

	// Draw the maximal potentially-frequent patterns. Items within a
	// pattern cluster (consecutive pattern indices share items with
	// probability 1/2, Quest's "correlation" between successive
	// patterns).
	patterns := make([][]int32, cfg.NumPatterns)
	for p := range patterns {
		size := poisson(rng, questPatternLen-2) + 2
		set := map[int32]bool{}
		// Reuse a fraction of the previous pattern's items.
		if p > 0 {
			for _, it := range patterns[p-1] {
				if len(set) < size/2 && rng.Float64() < 0.5 {
					set[it] = true
				}
			}
		}
		for len(set) < size {
			set[int32(rng.Intn(cfg.Items))] = true
		}
		items := make([]int32, 0, len(set))
		for it := range set {
			items = append(items, it)
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		patterns[p] = items
	}

	// Pattern weights: exponential-ish skew via normalised powers, so a
	// few patterns are frequent and a long tail is rare (the regime the
	// paper mines below a-priori's support floor).
	cum := make([]float64, cfg.NumPatterns)
	total := 0.0
	for p := range cum {
		w := 1.0
		for i := 0; i < p%7; i++ {
			w *= 0.6
		}
		total += w
		cum[p] = total
	}
	// Per-pattern corruption level, drawn once (Quest draws from a
	// normal around the mean; a uniform around it is adequate).
	corruption := make([]float64, cfg.NumPatterns)
	for p := range corruption {
		c := cfg.CorruptionMean + (rng.Float64()-0.5)*0.4
		if c < 0 {
			c = 0
		}
		if c > 0.9 {
			c = 0.9
		}
		corruption[p] = c
	}

	b := matrix.NewBuilder(cfg.Transactions, cfg.Items)
	for tx := 0; tx < cfg.Transactions; tx++ {
		want := poisson(rng, questTxLen-1) + 1
		placed := 0
		for placed < want {
			p := searchCum(cum, rng.Float64()*total)
			pat := patterns[p]
			for _, it := range pat {
				if rng.Float64() < corruption[p] {
					continue // corrupted away
				}
				b.Set(tx, int(it))
				placed++
			}
			// Quest: if the pattern overshoots the remaining budget it
			// is still placed half the time; we emulate by simply
			// stopping after the insert.
			if len(pat) == 0 {
				placed++ // guard against pathological empty patterns
			}
		}
	}
	return &Quest{Matrix: b.Build(), Patterns: patterns}, nil
}
