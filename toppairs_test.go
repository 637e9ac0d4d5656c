package assocmine

import (
	"reflect"
	"testing"

	"assocmine/internal/hashing"
)

func TestTopPairsReturnsExactlyN(t *testing.T) {
	d, _ := plantedDataset(t)
	for _, n := range []int{1, 5, 15} {
		got, err := TopPairs(d, n, Config{Algorithm: BruteForce}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d pairs", n, len(got))
		}
		// Sorted by decreasing similarity.
		for i := 1; i < len(got); i++ {
			if got[i].Similarity > got[i-1].Similarity {
				t.Fatalf("n=%d: not sorted", n)
			}
		}
	}
}

func TestTopPairsMatchesGroundTruthOrder(t *testing.T) {
	d, _ := plantedDataset(t)
	top, err := TopPairs(d, 3, Config{Algorithm: BruteForce}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The top pair must be a maximum-similarity pair overall (checked
	// against a low-threshold brute-force sweep).
	all, err := SimilarPairs(d, Config{Algorithm: BruteForce, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Pairs) == 0 {
		t.Fatal("no pairs at floor")
	}
	if top[0].Similarity != all.Pairs[0].Similarity {
		t.Errorf("top pair sim %v, global max %v", top[0].Similarity, all.Pairs[0].Similarity)
	}
}

func TestTopPairsFloorReturnsWhatExists(t *testing.T) {
	// Only one pair exists at all.
	d, err := NewDatasetFromColumns(6, [][]int{
		{0, 1, 2}, {0, 1, 2}, {3}, {4},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopPairs(d, 10, Config{Algorithm: BruteForce}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want the 1 that exists", len(got))
	}
}

func TestTopPairsValidation(t *testing.T) {
	d, _ := NewDatasetFromRows(2, [][]int{{0}, {1}})
	if _, err := TopPairs(d, 0, Config{Algorithm: BruteForce}, 0.1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := TopPairs(d, 1, Config{Algorithm: BruteForce}, 1.5); err == nil {
		t.Error("bad floor accepted")
	}
	if _, err := TopPairs(d, 1, Config{Algorithm: BruteForce, Threshold: 0.01}, 0.5); err == nil {
		t.Error("threshold below floor accepted")
	}
}

func TestTopPairsWithLSH(t *testing.T) {
	d, _ := plantedDataset(t)
	got, err := TopPairs(d, 5, Config{Algorithm: MinLSH, K: 100, R: 4, L: 25, Seed: 3}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d pairs", len(got))
	}
	for _, p := range got {
		if p.Similarity < 0.2 {
			t.Errorf("pair %+v below floor", p)
		}
	}
}

// topLoopKeep is the TopColumns search as first written, kept as the
// oracle of the per-column path: every attempt mines all the pairs of
// the matrix and keep filters the ones containing the column.
func topLoopKeep(n int, cfg Config, minThreshold float64, query func(Config) (*Result, error), keep func(Pair) bool) ([]Pair, error) {
	for {
		res, err := query(cfg)
		if err != nil {
			return nil, err
		}
		kept := make([]Pair, 0, len(res.Pairs))
		for _, p := range res.Pairs {
			if keep(p) {
				kept = append(kept, p)
			}
		}
		if len(kept) >= n {
			return kept[:n], nil
		}
		if cfg.Threshold <= minThreshold {
			return kept, nil
		}
		cfg.Threshold *= 0.7
		if cfg.Threshold < minThreshold {
			cfg.Threshold = minThreshold
		}
	}
}

// clusteredDataset is 60 columns over 900 rows: six clusters of eight
// columns, each column its cluster's base with its own share of noise
// (so a column has neighbours across the similarity range), eleven
// independent columns and an empty one.
func clusteredDataset(t *testing.T) *Dataset { return clusteredDatasetSeeded(t, 29) }

func clusteredDatasetSeeded(t *testing.T, seed uint64) *Dataset {
	t.Helper()
	const rows = 900
	rng := hashing.NewSplitMix64(seed)
	var cols [][]int
	for c := 0; c < 6; c++ {
		base := make([]bool, rows)
		for r := range base {
			base[r] = rng.Float64() < 0.12
		}
		for v := 0; v < 8; v++ {
			noise := 0.04 * float64(v)
			var col []int
			for r, set := range base {
				if rng.Float64() < noise {
					set = rng.Float64() < 0.12
				}
				if set {
					col = append(col, r)
				}
			}
			cols = append(cols, col)
		}
	}
	for c := 0; c < 11; c++ {
		var col []int
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.05 {
				col = append(col, r)
			}
		}
		cols = append(cols, col)
	}
	cols = append(cols, nil)
	d, err := NewDatasetFromColumns(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTopColumnsMatchAllPairsOracle: for every column, answer size,
// floor and sketch scheme, the per-column search returns exactly what
// mining every pair at each step and filtering on the column does.
func TestTopColumnsMatchAllPairsOracle(t *testing.T) {
	d := clusteredDataset(t)
	m := d.NumCols()
	sig, err := ComputeSignatures(d, 60, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, 48, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		all  func(Config) (*Result, error)
		top  func(col, n int, cfg Config, floor float64) ([]Pair, error)
	}{
		{"MinHash", Config{Algorithm: MinHash},
			func(c Config) (*Result, error) { return SimilarPairsWithSignatures(d, sig, c) },
			func(col, n int, c Config, f float64) ([]Pair, error) {
				return TopColumnsWith(d, sig, col, n, c, f)
			}},
		{"MinLSH", Config{Algorithm: MinLSH, R: 3, L: 20},
			func(c Config) (*Result, error) { return SimilarPairsWithSignatures(d, sig, c) },
			func(col, n int, c Config, f float64) ([]Pair, error) {
				return TopColumnsWith(d, sig, col, n, c, f)
			}},
		{"KMinHash", Config{Algorithm: KMinHash},
			func(c Config) (*Result, error) { return SimilarPairsWithSketches(d, sk, c) },
			func(col, n int, c Config, f float64) ([]Pair, error) {
				return TopColumnsWith(d, sk, col, n, c, f)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The all-pairs answer at a threshold does not depend on the
			// column: mined once per threshold the search visits.
			mined := map[float64]*Result{}
			all := func(c Config) (*Result, error) {
				if res, ok := mined[c.Threshold]; ok {
					return res, nil
				}
				res, err := tc.all(c)
				mined[c.Threshold] = res
				return res, err
			}
			answers := 0
			for _, floor := range []float64{0.05, 0.3, 0.9} {
				cfg := tc.cfg
				cfg.Threshold = 0.9
				for _, n := range []int{1, 10, m} {
					for col := 0; col < m; col++ {
						want, err := topLoopKeep(n, cfg, floor, all, func(p Pair) bool { return p.I == col || p.J == col })
						if err != nil {
							t.Fatal(err)
						}
						got, err := tc.top(col, n, cfg, floor)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("col %d n %d floor %v:\n got %v\nwant %v", col, n, floor, got, want)
						}
						answers += len(want)
					}
				}
			}
			if answers < 10*m {
				t.Errorf("only %d neighbours compared", answers)
			}
		})
	}
	if _, err := TopColumnsWith(d, sk, m, 1, Config{}, 0); err == nil {
		t.Error("column m accepted")
	}
}

// TestResidentContract: the three entry points over a Resident answer,
// for either sketch type and every scheme a sketch hosts, exactly what
// the run that folds its own sketch answers — SimilarPairs, TopPairs,
// and the all-pairs search filtered on the column — and what the typed
// spellings of SimilarPairsWith answer; a sketch turns away the schemes
// it cannot host.
func TestResidentContract(t *testing.T) {
	d := clusteredDataset(t)
	sig, err := ComputeSignatures(d, 60, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, 48, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		res   Resident
		cfg   Config
		typed func(Config) (*Result, error)
	}{
		{"Signatures/MinHash", sig, Config{Algorithm: MinHash, K: 60, Seed: 3},
			func(c Config) (*Result, error) { return SimilarPairsWithSignatures(d, sig, c) }},
		{"Signatures/MinLSH", sig, Config{Algorithm: MinLSH, K: 60, R: 3, L: 20, Seed: 3},
			func(c Config) (*Result, error) { return SimilarPairsWithSignatures(d, sig, c) }},
		{"Sketches/KMinHash", sk, Config{Algorithm: KMinHash, K: 48, Seed: 3},
			func(c Config) (*Result, error) { return SimilarPairsWithSketches(d, sk, c) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct := func(c Config) (*Result, error) { return SimilarPairs(d, c) }
			cfg := tc.cfg
			cfg.Threshold = 0.4
			want, err := direct(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Pairs) == 0 {
				t.Fatal("the direct run found no pairs")
			}
			for name, query := range map[string]func(Config) (*Result, error){
				"SimilarPairsWith": func(c Config) (*Result, error) { return SimilarPairsWith(d, tc.res, c) },
				"typed spelling":   tc.typed,
			} {
				got, err := query(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Pairs, want.Pairs) {
					t.Errorf("%s:\n got %v\nwant %v", name, got.Pairs, want.Pairs)
				}
			}
			cfg.Threshold = 0.9
			for _, n := range []int{3, 40} {
				wantTop, err := TopPairs(d, n, cfg, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				gotTop, err := TopPairsWith(d, tc.res, n, cfg, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				if len(wantTop) == 0 || !reflect.DeepEqual(gotTop, wantTop) {
					t.Errorf("TopPairsWith n=%d:\n got %v\nwant %v", n, gotTop, wantTop)
				}
				for _, col := range []int{0, 17, d.NumCols() - 1} {
					wantCol, err := topLoopKeep(n, cfg, 0.1, direct, func(p Pair) bool { return p.I == col || p.J == col })
					if err != nil {
						t.Fatal(err)
					}
					gotCol, err := TopColumnsWith(d, tc.res, col, n, cfg, 0.1)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotCol, wantCol) {
						t.Errorf("TopColumnsWith col=%d n=%d:\n got %v\nwant %v", col, n, gotCol, wantCol)
					}
				}
			}
		})
	}
	for name, bad := range map[string]func() error{
		"Signatures/KMinHash": func() error {
			_, err := SimilarPairsWith(d, sig, Config{Algorithm: KMinHash, Threshold: 0.5})
			return err
		},
		"Sketches/MinHash": func() error {
			_, err := TopPairsWith(d, sk, 3, Config{Algorithm: MinHash}, 0.1)
			return err
		},
		"Sketches/MinLSH column": func() error {
			_, err := TopColumnsWith(d, sk, 0, 3, Config{Algorithm: MinLSH}, 0.1)
			return err
		},
	} {
		if bad() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
