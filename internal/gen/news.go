package gen

import (
	"fmt"
	"math"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// collocation is a planted word pair that co-occurs with high
// confidence but low support — the Fig. 1 phenomenon ("Dalai Lama",
// "Beluga caviar and Ketel vodka"). The i-th pair's topic is mentioned
// in a fraction 0.002 + 0.008·(i mod 5)/4 of the documents, and both
// words appear in 90 % of those (one of them, evenly, otherwise).
type collocation struct {
	A, B string
}

// The news corpus's fixed shape: a document holds Poisson(newsWordsPerDoc)
// background words drawn Zipf(newsZipfS), and newsClusterRate of the
// documents are about the chess cluster, each of its words appearing in
// 85 % of them.
const (
	newsWordsPerDoc = 40
	newsZipfS       = 1.05
	newsClusterRate = 0.004
	newsTogether    = 0.9
)

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
// frequency distribution; the Fig. 1 collocations and the chess cluster
// provide the low-support, high-similarity structure the paper mines.
type NewsConfig struct {
	Docs  int // rows
	Vocab int // background vocabulary size (planted words are added on top)
	Seed  uint64
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

// GenerateNews builds the news corpus.
func GenerateNews(cfg NewsConfig) (*News, error) {
	if cfg.Docs <= 0 || cfg.Vocab <= 0 {
		return nil, fmt.Errorf("gen: docs and vocab must be positive, got %dx%d", cfg.Docs, cfg.Vocab)
	}
	rng := hashing.NewSplitMix64(cfg.Seed)
	collocations, cluster := fig1Collocations(), chessCluster()

	// Column layout: background vocabulary first, then collocation
	// words, then cluster words.
	words := make([]string, 0, cfg.Vocab+2*len(collocations)+len(cluster))
	for i := 0; i < cfg.Vocab; i++ {
		words = append(words, fmt.Sprintf("w%05d", i))
	}
	var planted []PlantedPair
	colloCols := make([][2]int32, len(collocations))
	for i, co := range collocations {
		a := int32(len(words))
		words = append(words, co.A)
		b := int32(len(words))
		words = append(words, co.B)
		colloCols[i] = [2]int32{a, b}
		planted = append(planted, PlantedPair{I: a, J: b})
	}
	var clusterCols []int32
	for _, w := range cluster {
		clusterCols = append(clusterCols, int32(len(words)))
		words = append(words, w)
	}
	totalCols := len(words)

	// Zipf cumulative weights over the background vocabulary.
	cum := make([]float64, cfg.Vocab)
	total := 0.0
	for i := 0; i < cfg.Vocab; i++ {
		total += 1 / math.Pow(float64(i+1), newsZipfS)
		cum[i] = total
	}

	b := matrix.NewBuilder(cfg.Docs, totalCols)
	for doc := 0; doc < cfg.Docs; doc++ {
		// Background words.
		nWords := poisson(rng, newsWordsPerDoc)
		for w := 0; w < nWords; w++ {
			b.Set(doc, searchCum(cum, rng.Float64()*total))
		}
		// Collocations.
		for i := range collocations {
			if rng.Float64() < 0.002+0.008*float64(i%5)/4 {
				if rng.Float64() < newsTogether {
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
		if rng.Float64() < newsClusterRate {
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
