package rules

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"assocmine/internal/gen"
	"assocmine/internal/hashing"
	"assocmine/internal/minhash"
)

// candidatesOracle is Section 6's estimator as first written — every
// ordered pair on its own, two strided column copies and one k-row walk
// each: the reference the row-major sweep of Candidates must equal, rule
// for rule and Estimate bit for Estimate bit.
func candidatesOracle(sig *minhash.Signatures, opt Options) ([]Rule, error) {
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

// sameAsOracle is the one assertion of the Candidates tests; it returns
// the number of rules compared.
func sameAsOracle(t *testing.T, sig *minhash.Signatures, opt Options) int {
	t.Helper()
	want, err := candidatesOracle(sig, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Candidates(context.Background(), sig, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d m=%d %+v: %d rules, oracle %d\n got %v\nwant %v", sig.K, sig.M, opt, len(got), len(want), got, want)
	}
	tri, err := Sweep(context.Background(), sig)
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := tri.Rules(opt); err != nil || !reflect.DeepEqual(kept, want) {
		t.Fatalf("k=%d m=%d %+v: the kept sweep answers %v (%v)\nwant %v", sig.K, sig.M, opt, kept, err, want)
	}
	return len(want)
}

// sweepOracle is Candidates as it stood before the sweep and the filter
// were two functions: one row-major pass with the Options applied inside
// it, an all-empty column skipped outright.
func sweepOracle(sig *minhash.Signatures, opt Options) ([]Rule, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	k, m := sig.K, sig.M
	var out []Rule
	emit := func(from, to int, agree, le int32) {
		if int(agree) < opt.MinAgreement || le == 0 {
			return
		}
		conf := float64(agree) / float64(le)
		if conf > 1 {
			conf = 1
		}
		if conf >= opt.MinConfidence {
			out = append(out, Rule{From: int32(from), To: int32(to), Estimate: conf})
		}
	}
	agree := make([]int32, m)
	lt := make([]int32, m)
	below := make([]int32, m)
	for i := 0; i < m; i++ {
		clear(agree[i+1:])
		clear(lt[i+1:])
		clear(below[i+1:])
		ki := int32(0)
		for l := 0; l < k; l++ {
			row := sig.Vals[l*m : (l+1)*m]
			vi := row[i]
			if vi == minhash.Empty {
				for j := i + 1; j < m; j++ {
					if row[j] != minhash.Empty {
						below[j]++
					}
				}
				continue
			}
			ki++
			for j := i + 1; j < m; j++ {
				vj := row[j]
				if vi == vj {
					agree[j]++
				}
				_, less := bits.Sub64(vi, vj, 0)
				lt[j] += int32(less)
			}
		}
		if ki == 0 {
			continue
		}
		for j := i + 1; j < m; j++ {
			emit(i, j, agree[j], lt[j]+agree[j])
			emit(j, i, agree[j], ki-lt[j]+below[j])
		}
	}
	sortRules(out)
	return out, nil
}

// TestTriangleMatchesSweep: one kept sweep answers every threshold as
// the per-threshold sweep did — each MinConfidence of a 0.01 grid under
// each MinAgreement, over matrices with all-empty and half-empty
// columns — and a cancelled sweep keeps nothing.
func TestTriangleMatchesSweep(t *testing.T) {
	rng := hashing.NewSplitMix64(29)
	half := smallSignatures(rng, 20, 10, false)
	for l := 0; l < half.K/2; l++ { // columns 1 and 8 are Empty on half their rows
		half.Vals[l*half.M+1], half.Vals[(2*l+1)*half.M+8] = minhash.Empty, minhash.Empty
	}
	caviar, _, _ := caviarFixture(hashing.NewSplitMix64(5), 1500)
	folded, err := minhash.Compute(caviar.Stream(), 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, sig := range map[string]*minhash.Signatures{
		"dense":      smallSignatures(rng, 16, 11, false),
		"all empty":  smallSignatures(rng, 4, 3, false, 0, 1, 2),
		"two empty":  smallSignatures(rng, 16, 11, true, 0, 10),
		"half empty": half,
		"folded":     folded,
	} {
		tri, err := Sweep(context.Background(), sig)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(len(tri.cells))*12, TriangleBytes(sig.M); got != want {
			t.Errorf("%s: %d bytes of cells, TriangleBytes says %d", name, got, want)
		}
		rules := 0
		for _, minAgree := range []int{1, 2, 5} {
			for c := 1; c <= 100; c++ {
				opt := Options{MinConfidence: float64(c) / 100, MinAgreement: minAgree}
				want, err := sweepOracle(sig, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tri.Rules(opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: %d rules from the triangle, %d from the sweep", name, opt, len(got), len(want))
				}
				rules += len(want)
			}
		}
		if (rules == 0) != (name == "all empty") {
			t.Errorf("%s: %d rules compared", name, rules)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sig := smallSignatures(rng, 8, 6, false)
	if tri, err := Sweep(context.Background(), sig); err != nil {
		t.Fatal(err)
	} else if _, err := tri.Rules(Options{}); err == nil {
		t.Error("the triangle answered invalid options")
	}
	if tri, err := Sweep(ctx, sig); tri != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Sweep = %v, %v", tri, err)
	}
	if rs, err := Candidates(ctx, sig, Options{MinConfidence: 0.1}); rs != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Candidates = %v, %v", rs, err)
	}
}

// smallSignatures draws a k×m matrix over a handful of values, so
// agreements and ties in Estimate are common; the columns in empty are
// all Empty, and one cell in eight of the others is Empty as well when
// holes is set (no fold leaves such a matrix; the sweep's bookkeeping
// must not care).
func smallSignatures(rng *hashing.SplitMix64, k, m int, holes bool, empty ...int) *minhash.Signatures {
	sig := &minhash.Signatures{K: k, M: m, Vals: make([]uint64, k*m)}
	for i := range sig.Vals {
		sig.Vals[i] = rng.Next() % 5
		if holes && rng.Next()%8 == 0 {
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
	rng := hashing.NewSplitMix64(17)
	dup := smallSignatures(rng, 12, 9, false)
	for l := 0; l < dup.K; l++ { // columns 2, 5 and 7 are one column
		dup.Vals[l*dup.M+5] = dup.Vals[l*dup.M+2]
		dup.Vals[l*dup.M+7] = dup.Vals[l*dup.M+2]
	}
	caviar, _, _ := caviarFixture(hashing.NewSplitMix64(3), 2000)
	folded, err := minhash.Compute(caviar.Stream(), 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, sig := range map[string]*minhash.Signatures{
		"dense":            smallSignatures(rng, 16, 11, false),
		"one empty column": smallSignatures(rng, 16, 11, false, 4),
		"two empty":        smallSignatures(rng, 16, 11, false, 0, 10),
		"all empty":        smallSignatures(rng, 4, 3, false, 0, 1, 2),
		"holes":            smallSignatures(rng, 16, 11, true, 6),
		"k=1":              smallSignatures(rng, 1, 8, false, 3),
		"duplicates":       dup,
		"one column":       smallSignatures(rng, 5, 1, false),
		"folded":           folded,
	} {
		t.Run(name, func(t *testing.T) {
			rules := 0
			for _, minAgree := range []int{0, 1, 2} { // 0 selects the default, 2
				for _, conf := range []float64{0.2, 0.6, 1} {
					rules += sameAsOracle(t, sig, Options{MinConfidence: conf, MinAgreement: minAgree})
				}
			}
			if wantNone := name == "all empty" || name == "one column"; (rules == 0) != wantNone {
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
		rng := hashing.NewSplitMix64(seed)
		kk, mm := int(k%24)+1, int(m%16)+1
		var empty []int
		if seed%3 == 0 {
			empty = append(empty, int(seed/3)%mm)
		}
		sig := smallSignatures(rng, kk, mm, holes, empty...)
		sameAsOracle(t, sig, Options{MinConfidence: (float64(conf) + 1) / 256, MinAgreement: int(seed % 3)})
	})
}

// BenchmarkRulesCandidates is the committed before/after of Section 6's
// estimator at the resident service's shape: 400 columns of a §5-style
// set, k = 200.
func BenchmarkRulesCandidates(b *testing.B) {
	m, _, err := gen.Synthetic(gen.SyntheticConfig{Rows: 6000, Cols: 400, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	sig, err := minhash.Compute(m.Stream(), 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Candidates(context.Background(), sig, Options{MinConfidence: 0.42}); err != nil {
			b.Fatal(err)
		}
	}
}
