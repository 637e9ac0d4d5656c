package rules

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/gen"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/testutil"
)

// oracleOptions is the oracle's parameter set. The product's rules take
// a confidence alone; their agreement floor is minAgree.
type oracleOptions struct {
	MinConfidence float64
	MinAgreement  int
}

func (o *oracleOptions) validate() error {
	if o.MinConfidence <= 0 || o.MinConfidence > 1 {
		return fmt.Errorf("rules: MinConfidence must be in (0,1], got %v", o.MinConfidence)
	}
	return nil
}

// candidatesOracle is Section 6's estimator as first written — every
// ordered pair on its own, two strided column copies and one k-row walk
// each: the reference the Table must equal, rule for rule and Estimate
// bit for Estimate bit.
func candidatesOracle(sig *minhash.Signatures, opt oracleOptions) ([]Rule, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	column := func(i int, dst []uint64) {
		for l := range dst {
			dst[l] = sig.Vals[l*sig.M+i]
		}
	}
	var out []Rule
	colI := make([]uint64, sig.K)
	colJ := make([]uint64, sig.K)
	for i := 0; i < sig.M; i++ {
		column(i, colI)
		empty := true
		for _, v := range colI {
			empty = empty && v == minhash.Empty
		}
		if empty {
			continue
		}
		for j := 0; j < sig.M; j++ {
			if i == j {
				continue
			}
			column(j, colJ)
			agree, le := 0, 0
			for l := 0; l < sig.K; l++ {
				vi, vj := colI[l], colJ[l]
				if vi == minhash.Empty {
					continue
				}
				if vi == vj {
					agree++
				}
				if vi <= vj {
					le++
				}
			}
			if agree < opt.MinAgreement || le == 0 {
				continue
			}
			conf := float64(agree) / float64(le)
			if conf > 1 {
				conf = 1
			}
			if conf >= opt.MinConfidence {
				out = append(out, Rule{From: int32(i), To: int32(j), Estimate: conf})
			}
		}
	}
	sortRules(out)
	return out, nil
}

// table is the product's pass over sig: its MH run index, built and
// scanned across workers goroutines, and the count.
func table(ctx context.Context, sig *minhash.Signatures, workers int) (*Table, error) {
	ix, err := candidate.IndexFor(ctx, candidate.Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, workers)
	if err != nil {
		return nil, err
	}
	return NewTable(ctx, sig, ix, workers)
}

// candidates is the rules of the Table over sig at minConf.
func candidates(t testing.TB, sig *minhash.Signatures, minConf float64) []Rule {
	t.Helper()
	tab, err := table(context.Background(), sig, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tab.Rules(minConf)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// sameAsOracle is the one assertion of the Table tests, at the product's
// agreement floor: the rules of a Table counted on one worker and on
// three. It returns the number of rules compared.
func sameAsOracle(t *testing.T, sig *minhash.Signatures, minConf float64) int {
	t.Helper()
	want, err := candidatesOracle(sig, oracleOptions{MinConfidence: minConf, MinAgreement: minAgree})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		tab, err := table(context.Background(), sig, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tab.Rules(minConf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d m=%d conf %v, %d workers: %d rules, oracle %d\n got %v\nwant %v", sig.K, sig.M, minConf, workers, len(got), len(want), got, want)
		}
	}
	return len(want)
}

// TestTableMatchesOracle: one Table answers every threshold as the
// oracle does — each confidence of a 0.01 grid, over matrices with
// all-empty and half-empty columns — within the size its run index
// bounds it by; a cancelled scan or count keeps nothing.
func TestTableMatchesOracle(t *testing.T) {
	next := testutil.SplitMix64(29)
	half := smallSignatures(next, 20, 10, false)
	for l := 0; l < half.K/2; l++ { // columns 1 and 8 are Empty on half their rows
		half.Vals[l*half.M+1], half.Vals[(2*l+1)*half.M+8] = minhash.Empty, minhash.Empty
	}
	caviar, _, _ := caviarFixture(hashing.NewSplitMix64(5), 1500)
	folded, err := mhSketch(caviar.Stream(), 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, sig := range map[string]*minhash.Signatures{
		"dense":      smallSignatures(next, 16, 11, false),
		"all empty":  smallSignatures(next, 4, 3, false, 0, 1, 2),
		"two empty":  smallSignatures(next, 16, 11, true, 0, 10),
		"half empty": half,
		"folded":     folded,
	} {
		ix, err := candidate.IndexFor(context.Background(), candidate.Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable(context.Background(), sig, ix, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := int64(len(tab.cells))*20, TableBytes(ix); got > bound {
			t.Errorf("%s: %d bytes of cells, TableBytes bounds them by %d", name, got, bound)
		}
		rules := 0
		for c := 1; c <= 100; c++ {
			conf := float64(c) / 100
			want, err := candidatesOracle(sig, oracleOptions{MinConfidence: conf, MinAgreement: minAgree})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tab.Rules(conf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %v: %d rules from the table, %d from the oracle", name, conf, len(got), len(want))
			}
			rules += len(want)
		}
		if (rules == 0) != (name == "all empty") {
			t.Errorf("%s: %d rules compared", name, rules)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sig := smallSignatures(next, 8, 6, false)
	ix, err := candidate.IndexFor(context.Background(), candidate.Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab, err := NewTable(context.Background(), sig, ix, 1); err != nil {
		t.Fatal(err)
	} else if _, err := tab.Rules(0); err == nil {
		t.Error("the table answered confidence 0")
	}
	if tab, err := NewTable(ctx, sig, ix, 1); tab != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled NewTable = %v, %v", tab, err)
	}
	k, err := ix.Kernel(candidate.Params{Algo: fold.MinHash, K: sig.K, Threshold: minAgree / float64(sig.K)})
	if err != nil {
		t.Fatal(err)
	}
	agreeing, _, err := k.Scan(context.Background(), nil, 1, nil)
	if err != nil || len(agreeing) == 0 {
		t.Fatalf("%d pairs agree twice: %v", len(agreeing), err)
	}
	if tab, err := count(ctx, sig, agreeing); tab != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled count = %v, %v", tab, err)
	}
}

// smallSignatures draws a k×m matrix over a handful of values, so
// agreements and ties in Estimate are common; the columns in empty are
// all Empty, and one cell in eight of the others is Empty as well when
// holes is set (no fold leaves such a matrix; the sweep's bookkeeping
// must not care).
func smallSignatures(next func() uint64, k, m int, holes bool, empty ...int) *minhash.Signatures {
	sig := &minhash.Signatures{K: k, M: m, Vals: make([]uint64, k*m)}
	for i := range sig.Vals {
		sig.Vals[i] = next() % 5
		if holes && next()%8 == 0 {
			sig.Vals[i] = minhash.Empty
		}
	}
	for _, c := range empty {
		for l := 0; l < k; l++ {
			sig.Vals[l*m+c] = minhash.Empty
		}
	}
	return sig
}

func TestCandidatesMatchOracle(t *testing.T) {
	next := testutil.SplitMix64(17)
	dup := smallSignatures(next, 12, 9, false)
	for l := 0; l < dup.K; l++ { // columns 2, 5 and 7 are one column
		dup.Vals[l*dup.M+5] = dup.Vals[l*dup.M+2]
		dup.Vals[l*dup.M+7] = dup.Vals[l*dup.M+2]
	}
	caviar, _, _ := caviarFixture(hashing.NewSplitMix64(3), 2000)
	folded, err := mhSketch(caviar.Stream(), 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, sig := range map[string]*minhash.Signatures{
		"dense":            smallSignatures(next, 16, 11, false),
		"one empty column": smallSignatures(next, 16, 11, false, 4),
		"two empty":        smallSignatures(next, 16, 11, false, 0, 10),
		"all empty":        smallSignatures(next, 4, 3, false, 0, 1, 2),
		"holes":            smallSignatures(next, 16, 11, true, 6),
		"k=1":              smallSignatures(next, 1, 8, false, 3),
		"k=2":              smallSignatures(next, 2, 8, false, 3),
		"duplicates":       dup,
		"one column":       smallSignatures(next, 5, 1, false),
		"folded":           folded,
	} {
		t.Run(name, func(t *testing.T) {
			rules := 0
			for _, conf := range []float64{0.2, 0.6, 1} {
				rules += sameAsOracle(t, sig, conf)
			}
			// One row cannot agree twice.
			if wantNone := name == "all empty" || name == "one column" || name == "k=1"; (rules == 0) != wantNone {
				t.Errorf("%d rules compared", rules)
			}
		})
	}
}

func FuzzRulesCandidates(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(6), uint8(128), false)
	f.Add(uint64(2), uint8(1), uint8(2), uint8(255), true)
	f.Add(uint64(3), uint8(20), uint8(13), uint8(40), true)
	f.Fuzz(func(t *testing.T, seed uint64, k, m, conf uint8, holes bool) {
		next := testutil.SplitMix64(seed)
		kk, mm := int(k%24)+1, int(m%16)+1
		var empty []int
		if seed%3 == 0 {
			empty = append(empty, int(seed/3)%mm)
		}
		sig := smallSignatures(next, kk, mm, holes, empty...)
		sameAsOracle(t, sig, (float64(conf)+1)/256)
	})
}

// BenchmarkRulesCandidates is the committed before/after of Section 6's
// estimator, the one-shot run's index, floor scan and count on one
// worker, k = 200: at the resident service's shape (400 columns of a
// §5-style set, where about 66 % of pairs agree twice) and on the news
// corpus of `cmd/experiments -scale full` (6 040 columns, about 4 %).
func BenchmarkRulesCandidates(b *testing.B) {
	syn, _, err := gen.Synthetic(gen.SyntheticConfig{Rows: 6000, Cols: 400, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	news, err := gen.GenerateNews(gen.NewsConfig{Docs: 30000, Vocab: 6000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		m       *matrix.Matrix
		seed    uint64
		minConf float64
	}{{"synthetic", syn, 1, 0.42}, {"news", news.Matrix, 23, 0.75 * 0.7}} {
		b.Run(c.name, func(b *testing.B) {
			sig, err := mhSketch(c.m.Stream(), 200, c.seed)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pairs int
			for i := 0; i < b.N; i++ {
				tab, err := table(context.Background(), sig, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tab.Rules(c.minConf); err != nil {
					b.Fatal(err)
				}
				pairs = len(tab.cells)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}
