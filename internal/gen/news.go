package gen

import (
	"fmt"
	"math"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// collocation is a planted word pair that co-occurs with high
// confidence but low support — the Fig. 1 phenomenon ("Dalai Lama",
// "Beluga caviar and Ketel vodka").
type collocation struct {
	A, B string
	// Rate is the fraction of documents mentioning the pair; defaults
	// to a value drawn in [0.002, 0.01] when zero.
	Rate float64
	// Together is the probability both words appear given the topic is
	// mentioned (the rest of the time only one appears); defaults to 0.9.
	Together float64
}

// fig1Collocations returns the pair list of the paper's Fig. 1 — the
// qualitative output the news experiment reproduces.
func fig1Collocations() []collocation {
	ps := [][2]string{
		{"dalai", "lama"}, {"meryl", "streep"}, {"bertolt", "brecht"},
		{"buenos", "aires"}, {"darth", "vader"},
		{"pneumocystis", "carinii"}, {"meseo", "oceania"}, {"fibrosis", "cystic"},
		{"avant", "garde"}, {"mache", "papier"}, {"cosa", "nostra"},
		{"hors", "oeuvres"}, {"presse", "agence"},
		{"encyclopedia", "britannica"}, {"salman", "satanic"},
		{"mardi", "gras"}, {"emperor", "hirohito"},
	}
	out := make([]collocation, len(ps))
	for i, p := range ps {
		out[i] = collocation{A: p[0], B: p[1]}
	}
	return out
}

// chessCluster returns the paper's example word cluster (a chess
// event): a group of words mutually similar pairwise.
func chessCluster() []string {
	return []string{"chess", "timman", "karpov", "soviet", "ivanchuk", "polgar"}
}

// NewsConfig models the Reuters news corpus of Section 2: rows are
// documents, columns are words. Background words follow a Zipf
// frequency distribution; planted collocations and clusters provide the
// low-support, high-similarity structure the paper mines.
type NewsConfig struct {
	Docs  int // rows
	Vocab int // background vocabulary size (planted words are added on top)
	// WordsPerDoc is the mean number of distinct background words per
	// document (Poisson). Defaults to 40.
	WordsPerDoc float64
	// ZipfS is the background word-frequency exponent. Defaults to 1.05.
	ZipfS float64
	// Collocations are the planted pairs; defaults to fig1Collocations.
	Collocations []collocation
	// Cluster is a planted word cluster; defaults to chessCluster. Nil
	// slice with ClusterRate 0 disables it.
	Cluster []string
	// ClusterRate is the fraction of documents about the cluster topic;
	// defaults to 0.004.
	ClusterRate float64
	Seed        uint64
}

// News is a generated corpus: the matrix, the word for every column,
// and the planted structures by column index.
type News struct {
	Matrix *matrix.Matrix
	Words  []string
	// PlantedPairs holds the collocation column pairs.
	PlantedPairs []PlantedPair
	// ClusterCols holds the planted cluster's columns.
	ClusterCols []int32
}

func (c *NewsConfig) setDefaults() error {
	if c.Docs <= 0 || c.Vocab <= 0 {
		return fmt.Errorf("gen: docs and vocab must be positive, got %dx%d", c.Docs, c.Vocab)
	}
	if c.WordsPerDoc == 0 {
		c.WordsPerDoc = 40
	}
	if c.WordsPerDoc <= 0 {
		return fmt.Errorf("gen: WordsPerDoc must be positive")
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.05
	}
	if c.ZipfS <= 0 {
		return fmt.Errorf("gen: ZipfS must be positive")
	}
	if c.Collocations == nil {
		c.Collocations = fig1Collocations()
	}
	if c.Cluster == nil && c.ClusterRate == 0 {
		c.Cluster = chessCluster()
	}
	if c.ClusterRate == 0 && len(c.Cluster) > 0 {
		c.ClusterRate = 0.004
	}
	if c.ClusterRate < 0 || c.ClusterRate > 1 {
		return fmt.Errorf("gen: ClusterRate must be in [0,1]")
	}
	return nil
}

// GenerateNews builds the news corpus.
func GenerateNews(cfg NewsConfig) (*News, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.NewSplitMix64(cfg.Seed)

	// Column layout: background vocabulary first, then collocation
	// words, then cluster words.
	words := make([]string, 0, cfg.Vocab+2*len(cfg.Collocations)+len(cfg.Cluster))
	for i := 0; i < cfg.Vocab; i++ {
		words = append(words, fmt.Sprintf("w%05d", i))
	}
	var planted []PlantedPair
	colloCols := make([][2]int32, len(cfg.Collocations))
	for i, co := range cfg.Collocations {
		a := int32(len(words))
		words = append(words, co.A)
		b := int32(len(words))
		words = append(words, co.B)
		colloCols[i] = [2]int32{a, b}
		planted = append(planted, PlantedPair{I: a, J: b})
	}
	var clusterCols []int32
	for _, w := range cfg.Cluster {
		clusterCols = append(clusterCols, int32(len(words)))
		words = append(words, w)
	}
	totalCols := len(words)

	// Zipf cumulative weights over the background vocabulary.
	cum := make([]float64, cfg.Vocab)
	total := 0.0
	for i := 0; i < cfg.Vocab; i++ {
		total += 1 / math.Pow(float64(i+1), cfg.ZipfS)
		cum[i] = total
	}

	b := matrix.NewBuilder(cfg.Docs, totalCols)
	for doc := 0; doc < cfg.Docs; doc++ {
		// Background words.
		nWords := poisson(rng, cfg.WordsPerDoc)
		for w := 0; w < nWords; w++ {
			b.Set(doc, searchCum(cum, rng.Float64()*total))
		}
		// Collocations.
		for i, co := range cfg.Collocations {
			rate := co.Rate
			if rate == 0 {
				// Deterministic per-pair default rate in [0.002, 0.01].
				rate = 0.002 + 0.008*float64(i%5)/4
			}
			together := co.Together
			if together == 0 {
				together = 0.9
			}
			if rng.Float64() < rate {
				if rng.Float64() < together {
					b.Set(doc, int(colloCols[i][0]))
					b.Set(doc, int(colloCols[i][1]))
				} else if rng.Float64() < 0.5 {
					b.Set(doc, int(colloCols[i][0]))
				} else {
					b.Set(doc, int(colloCols[i][1]))
				}
			}
		}
		// Cluster topic.
		if len(clusterCols) > 0 && rng.Float64() < cfg.ClusterRate {
			for _, c := range clusterCols {
				if rng.Float64() < 0.85 {
					b.Set(doc, int(c))
				}
			}
		}
	}
	return &News{
		Matrix:       b.Build(),
		Words:        words,
		PlantedPairs: planted,
		ClusterCols:  clusterCols,
	}, nil
}
