package assocmine

import (
	"assocmine/internal/gen"
)

// The generator wrappers expose the workloads of the paper's
// experiments (Section 5) so examples and downstream users can
// reproduce them without touching internal packages.

// SyntheticOptions configures GenerateSynthetic; see the paper's
// Section 5 synthetic data description. Zero values choose the paper's
// defaults (densities 1–5 percent, one similar pair per 100 columns
// split across the five 10-point similarity ranges from 45 to 95
// percent).
type SyntheticOptions struct {
	Rows, Cols    int
	MinDensity    float64
	MaxDensity    float64
	PairsPerRange int
	Seed          uint64
}

// PlantedPair identifies a generated similar column pair and its
// target similarity.
type PlantedPair struct {
	I, J      int
	TargetSim float64
}

// GenerateSynthetic builds the Section 5 synthetic dataset.
func GenerateSynthetic(opt SyntheticOptions) (*Dataset, []PlantedPair, error) {
	m, planted, err := gen.Synthetic(gen.SyntheticConfig{
		Rows: opt.Rows, Cols: opt.Cols,
		MinDensity: opt.MinDensity, MaxDensity: opt.MaxDensity,
		PairsPerRange: opt.PairsPerRange, Seed: opt.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]PlantedPair, len(planted))
	for i, p := range planted {
		out[i] = PlantedPair{I: int(p.I), J: int(p.J), TargetSim: p.TargetSim}
	}
	return &Dataset{m: m}, out, nil
}

// WebLogOptions configures GenerateWebLog, the stand-in for the paper's
// Sun Microsystems web-server log: rows are client IPs, columns URLs,
// and embedded gif/applet resources co-fetch with their parent page.
type WebLogOptions struct {
	Clients, URLs int
	Seed          uint64
}

// WebLogDataset is a generated web log plus its planted
// embedded-resource groups (each group is mutually high-similarity).
type WebLogDataset struct {
	Data *Dataset
	// Groups lists, per parent page, the columns of its embedded
	// resources.
	Groups [][]int
	// Parents lists the parent page column of each group.
	Parents []int
}

// GenerateWebLog builds the web-log dataset.
func GenerateWebLog(opt WebLogOptions) (*WebLogDataset, error) {
	w, err := gen.GenerateWebLog(gen.WebLogConfig{
		Clients: opt.Clients, URLs: opt.URLs, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	groups := make([][]int, len(w.Groups))
	for i, g := range w.Groups {
		groups[i] = make([]int, len(g))
		for j, c := range g {
			groups[i][j] = int(c)
		}
	}
	parents := make([]int, len(w.Parents))
	for i, p := range w.Parents {
		parents[i] = int(p)
	}
	return &WebLogDataset{Data: &Dataset{m: w.Matrix}, Groups: groups, Parents: parents}, nil
}

// QuestOptions configures GenerateQuest, an IBM-Quest-style synthetic
// transaction generator (the "T10.I4.D100K" workload family of the
// a-priori papers): transactions are assembled from maximal
// potentially-frequent patterns with corruption, yielding both genuine
// frequent itemsets for the baseline and a rare high-lift tail for the
// signature algorithms. Its baskets have the classic shape T=10, I=4.
type QuestOptions struct {
	Transactions, Items int
	Seed                uint64
}

// QuestDataset is a generated Quest workload with its planted maximal
// patterns.
type QuestDataset struct {
	Data     *Dataset
	Patterns [][]int
}

// GenerateQuest builds the Quest workload.
func GenerateQuest(opt QuestOptions) (*QuestDataset, error) {
	q, err := gen.GenerateQuest(gen.QuestConfig{
		Transactions: opt.Transactions, Items: opt.Items, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	pats := make([][]int, len(q.Patterns))
	for i, p := range q.Patterns {
		pats[i] = make([]int, len(p))
		for j, it := range p {
			pats[i][j] = int(it)
		}
	}
	return &QuestDataset{Data: &Dataset{m: q.Matrix}, Patterns: pats}, nil
}

// NewsOptions configures GenerateNews, the stand-in for the paper's
// Reuters news corpus: rows are documents, columns are words, with
// planted low-support high-similarity collocations (the Fig. 1 pairs)
// and a planted word cluster (the chess event).
type NewsOptions struct {
	Docs, Vocab int
	Seed        uint64
}

// NewsDataset is a generated corpus with its vocabulary and planted
// structure.
type NewsDataset struct {
	Data *Dataset
	// Words maps column index to word.
	Words []string
	// PlantedPairs lists the collocation column pairs.
	PlantedPairs [][2]int
	// ClusterCols lists the planted cluster's columns.
	ClusterCols []int
}

// Word returns the word of column c.
func (n *NewsDataset) Word(c int) string { return n.Words[c] }

// GenerateNews builds the news corpus.
func GenerateNews(opt NewsOptions) (*NewsDataset, error) {
	news, err := gen.GenerateNews(gen.NewsConfig{
		Docs: opt.Docs, Vocab: opt.Vocab, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	planted := make([][2]int, len(news.PlantedPairs))
	for i, p := range news.PlantedPairs {
		planted[i] = [2]int{int(p.I), int(p.J)}
	}
	cluster := make([]int, len(news.ClusterCols))
	for i, c := range news.ClusterCols {
		cluster[i] = int(c)
	}
	return &NewsDataset{
		Data:         &Dataset{m: news.Matrix},
		Words:        news.Words,
		PlantedPairs: planted,
		ClusterCols:  cluster,
	}, nil
}
