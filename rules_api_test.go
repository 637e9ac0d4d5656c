package assocmine

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"assocmine/internal/dist"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
)

// rulesData is a dataset with rules on both sides of the 0.7 cutoff and
// candidates the exact pass prunes.
func rulesData(t *testing.T) *Dataset {
	t.Helper()
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 1500, Cols: 120, PairsPerRange: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// rulesOracle is the hand-sequenced §6 run the driver replaced
// (rulesFromSignatures at PR 26): signatures, candidates and the exact
// pass called one after the other on the bare source.
func rulesOracle(t *testing.T, src matrix.RowSource, cfg Config) []Pair {
	t.Helper()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	sig, err := minhash.Compute(src, cfg.K, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := rules.Candidates(context.Background(), sig, rules.Options{MinConfidence: (1 - cfg.Delta) * cfg.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SkipVerify {
		out := make([]Pair, len(cand))
		for i, r := range cand {
			out[i] = Pair{I: int(r.From), J: int(r.To), Estimate: r.Estimate}
		}
		return out
	}
	// The reference exact pass: each directed rule once, the distinct
	// undirected pairs behind them counted in one scan beside every
	// column's size, by decreasing confidence.
	rs := slices.Clone(cand)
	slices.SortStableFunc(rs, func(a, b rules.Rule) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	rs = slices.CompactFunc(rs, func(a, b rules.Rule) bool { return a.From == b.From && a.To == b.To })
	keys := make([]uint64, len(rs))
	for i, r := range rs {
		keys[i] = pairs.Make(r.From, r.To).Key()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	pairsOf := make([][]int32, src.NumCols())
	for idx, key := range keys {
		p := pairs.FromKey(key)
		pairsOf[p.I] = append(pairsOf[p.I], int32(idx))
		pairsOf[p.J] = append(pairsOf[p.J], int32(idx))
	}
	inter := make([]int32, len(keys))
	lastRow := make([]int32, len(keys))
	for i := range lastRow {
		lastRow[i] = -1
	}
	colSize := make([]int32, src.NumCols())
	err = src.Scan(func(row int, cols []int32) error {
		r := int32(row)
		for _, c := range cols {
			colSize[c]++
			for _, idx := range pairsOf[c] {
				if lastRow[idx] == r {
					inter[idx]++
				} else {
					lastRow[idx] = r
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []Pair
	for _, r := range rs {
		if colSize[r.From] == 0 {
			continue
		}
		idx, _ := slices.BinarySearch(keys, pairs.Make(r.From, r.To).Key())
		if conf := float64(inter[idx]) / float64(colSize[r.From]); conf >= cfg.Threshold {
			out = append(out, Pair{I: int(r.From), J: int(r.To), Estimate: r.Estimate, Similarity: conf})
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(b.Similarity, a.Similarity), cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	return out
}

// TestMineRulesMatchesOracle: the rules the driver mines — folded or
// from adopted signatures, verified or not — equal the hand-sequenced
// run's bit for bit, order included.
func TestMineRulesMatchesOracle(t *testing.T) {
	d := rulesData(t)
	for _, seed := range []uint64{3, 17, 99} {
		for _, skip := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/skip=%v", seed, skip), func(t *testing.T) {
				cfg := Config{Algorithm: Rules, Threshold: 0.7, K: 80, Seed: seed, SkipVerify: skip}
				want := rulesOracle(t, d.m.Stream(), cfg)
				if len(want) == 0 {
					t.Fatal("oracle mined no rules: the comparison would be vacuous")
				}
				got, err := SimilarPairs(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, got.Pairs, want)
				sig, err := ComputeSignatures(d, cfg.K, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got, err = SimilarPairsWith(d, sig, cfg); err != nil {
					t.Fatal(err)
				}
				samePairs(t, got.Pairs, want)
			})
		}
	}
}

// TestMineRulesStats: a rules run reports the work it did — the passes
// it made, the sketch it folded or adopted, the bytes a file-backed run
// read and the candidates its exact pass pruned.
func TestMineRulesStats(t *testing.T) {
	d := rulesData(t)
	const k = 80
	n, m := int64(d.NumRows()), int64(d.NumCols())
	open := func(ext string) *FileDataset {
		fd, err := OpenFileDataset(saveDataset(t, d, t.TempDir(), ext))
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}
	arows, carows := open(".arows"), open(".carows")
	sig, err := ComputeSignatures(d, k, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name             string
		mine             func(Config) (*Result, error)
		folded           bool
		file, compressed bool
	}{
		{"memory", func(c Config) (*Result, error) { return SimilarPairs(d, c) }, true, false, false},
		{"arows", arows.SimilarPairs, true, true, false},
		{"carows", carows.SimilarPairs, true, true, true},
		{"adopted", func(c Config) (*Result, error) { return SimilarPairsWith(d, sig, c) }, false, false, false},
	}
	for _, r := range runs {
		for _, skip := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/skip=%v", r.name, skip), func(t *testing.T) {
				res, err := r.mine(Config{Algorithm: Rules, Threshold: 0.7, K: k, Seed: 5, SkipVerify: skip})
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if st.Algorithm != Rules {
					t.Errorf("Stats.Algorithm = %v, want Rules", st.Algorithm)
				}
				passes, cells := 0, int64(0)
				if r.folded {
					passes, cells = 1, k*m
				}
				if !skip {
					passes++
				}
				if st.DataPasses != passes || st.RowsScanned != int64(passes)*n {
					t.Errorf("DataPasses = %d, RowsScanned = %d; want %d and %d", st.DataPasses, st.RowsScanned, passes, int64(passes)*n)
				}
				if st.SignatureCells != cells || st.SignatureBytes != 8*k*m {
					t.Errorf("SignatureCells = %d, SignatureBytes = %d; want %d and %d", st.SignatureCells, st.SignatureBytes, cells, 8*k*m)
				}
				if r.file != (st.BytesRead > 0) || r.compressed != (st.CompressedBytesRead > 0) {
					t.Errorf("BytesRead = %d, CompressedBytesRead = %d on a run with file=%v compressed=%v", st.BytesRead, st.CompressedBytesRead, r.file, r.compressed)
				}
				if st.Candidates == 0 || st.Candidates < len(res.Pairs) {
					t.Errorf("Candidates = %d for %d rules", st.Candidates, len(res.Pairs))
				}
				wantVerified, wantFP := len(res.Pairs), st.Candidates-len(res.Pairs)
				if skip {
					wantVerified, wantFP = 0, 0
				} else if wantFP == 0 {
					t.Error("the exact pass pruned nothing: FalsePositives is untested")
				}
				if st.Verified != wantVerified || st.FalsePositives != wantFP {
					t.Errorf("Verified = %d, FalsePositives = %d; want %d and %d", st.Verified, st.FalsePositives, wantVerified, wantFP)
				}
			})
		}
	}
}

// TestRulesRefusedWhereItCannotRun: an entry point that cannot run §6's
// Rules says so by name rather than mining something else — the
// threshold-lowering searches, progressive mining, an Ingest new or
// restored, and dist's process pool, which verifies by similarity only.
func TestRulesRefusedWhereItCannotRun(t *testing.T) {
	d := rulesData(t)
	sig, err := ComputeSignatures(d, 40, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: Rules, Threshold: 0.7, Seed: 3}
	snapshot := filepath.Join(t.TempDir(), "rules.ain")
	in, err := NewIngest(MinHash, d.NumCols(), 40, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Save(snapshot); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(raw[4:], uint64(Rules)) // the header's algorithm word
	if err := os.WriteFile(snapshot, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	arows := saveDataset(t, d, t.TempDir(), ".arows")
	for name, run := range map[string]func() error{
		"TopPairsWith": func() error { _, err := TopPairsWith(d, sig, 5, cfg, 0); return err },
		"TopColumnsWith": func() error {
			_, err := TopColumnsWith(d, sig, 0, 5, cfg, 0)
			return err
		},
		"ProgressiveSimilarPairs": func() error {
			_, err := ProgressiveSimilarPairs(d, cfg, func(Progress) bool { return true })
			return err
		},
		"NewIngest":  func() error { _, err := NewIngest(Rules, d.NumCols(), 40, 3, 0); return err },
		"LoadIngest": func() error { _, err := LoadIngest(snapshot); return err },
		"dist.Run": func() error {
			_, err := dist.Run(dist.Config{Path: arows, Algorithm: dist.Algo(Rules), Threshold: 0.7, WorkerArgv: []string{os.Args[0]}})
			return err
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "Rules") {
			t.Errorf("%s: err = %v, want an error naming Rules", name, err)
		}
	}
}
