package assocmine

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"assocmine/internal/candidate"
	"assocmine/internal/dist"
	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
	"assocmine/internal/testutil"
	"assocmine/internal/verify"
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
	sig, err := mhSketch(src, cfg.K, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := candidate.IndexFor(context.Background(), candidate.Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := rules.NewTable(context.Background(), sig, ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := tab.Rules((1 - cfg.Delta) * cfg.Threshold)
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
	// open returns the dataset saved in format ext and its file's size.
	open := func(ext string) (*FileDataset, int64) {
		path := saveDataset(t, d, t.TempDir(), ext)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := OpenFileDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		return fd, info.Size()
	}
	arows, arowsSize := open(".arows")
	carows, carowsSize := open(".carows")
	sig, err := ComputeSignatures(d, k, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name   string
		mine   func(Config) (*Result, error)
		folded bool
		size   int64 // bytes of the file the run streams, 0 for none
	}{
		{"memory", func(c Config) (*Result, error) { return SimilarPairs(d, c) }, true, 0},
		{"arows", arows.SimilarPairs, true, arowsSize},
		{"carows", carows.SimilarPairs, true, carowsSize},
		{"adopted", func(c Config) (*Result, error) { return SimilarPairsWith(d, sig, c) }, false, 0},
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
				if st.BytesRead != int64(passes)*r.size {
					t.Errorf("BytesRead = %d, want %d passes over a %d-byte file", st.BytesRead, passes, r.size)
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

// mhSketch folds src into k min-hash values per column through phase
// 1's own fold, on one worker.
func mhSketch(src matrix.RowSource, k int, seed uint64) (*minhash.Signatures, error) {
	f, _ := fold.For(fold.MinHash)
	st, err := f.New(src.NumCols(), k, seed)
	if err != nil {
		return nil, err
	}
	if _, err := fold.FoldStream(src, st, 1); err != nil {
		return nil, err
	}
	return st.Finish().MH, nil
}

// orRulesOracle is OrRules' exact stage before it ran through
// verify.Verify (rules.VerifyOrRules): each rule's OR column
// materialised by a merge and intersected with the antecedent, the
// rules at or above minSim kept by decreasing exact similarity, then
// From, To[0], To[1].
func orRulesOracle(m *matrix.Matrix, cand []rules.OrRule, minSim float64) []OrRule {
	var out []OrRule
	for _, r := range cand {
		a, b := m.Column(int(r.To[0])), m.Column(int(r.To[1]))
		or := make([]int32, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				or = append(or, a[i])
				i++
			case a[i] > b[j]:
				or = append(or, b[j])
				j++
			default:
				or = append(or, a[i])
				i++
				j++
			}
		}
		or = append(append(or, a[i:]...), b[j:]...)
		ante := m.Column(int(r.From))
		inter := 0
		for _, row := range ante {
			if _, ok := slices.BinarySearch(or, row); ok {
				inter++
			}
		}
		union := len(ante) + len(or) - inter
		if union == 0 {
			continue
		}
		if s := float64(inter) / float64(union); s >= minSim {
			out = append(out, OrRule{
				From: int(r.From), To: [2]int{int(r.To[0]), int(r.To[1])},
				Estimate: r.Estimate, Similarity: s,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		if out[a].To[0] != out[b].To[0] {
			return out[a].To[0] < out[b].To[0]
		}
		return out[a].To[1] < out[b].To[1]
	})
	return out
}

// orFixture is a random matrix whose column 0 is empty and column 1
// full; every other column draws most of one of two latent row sets,
// so consequents co-occur and an antecedent is often close to the OR of
// two others. Its shortlist gives a few antecedents a handful of
// consequents each, at times repeating one or listing the antecedent
// itself.
func orFixture(seed uint64) (*Dataset, map[int][]int) {
	rng := hashing.NewSplitMix64(seed)
	rows, cols := 20+rng.Intn(400), 4+rng.Intn(20)
	latent := [2]float64{0.05 + 0.3*rng.Float64(), 0.05 + 0.3*rng.Float64()}
	in := make([][2]bool, rows)
	for r := range in {
		in[r] = [2]bool{rng.Float64() < latent[0], rng.Float64() < latent[1]}
	}
	noise := 0.1 * rng.Float64()
	b := matrix.NewBuilder(rows, cols)
	for r := 0; r < rows; r++ {
		b.Set(r, 1)
		for c := 2; c < cols; c++ {
			if (in[r][c%2] && rng.Float64() < 0.8) || rng.Float64() < noise {
				b.Set(r, c)
			}
		}
	}
	shortlist := map[int][]int{}
	for range 1 + rng.Intn(4) {
		from := rng.Intn(cols)
		var tos []int
		for range 2 + rng.Intn(6) {
			tos = append(tos, rng.Intn(cols))
		}
		if rng.Float64() < 0.3 {
			tos = append(tos, tos[0])
		}
		if rng.Float64() < 0.3 {
			tos = append(tos, from)
		}
		shortlist[from] = tos
	}
	return &Dataset{m: b.Build()}, shortlist
}

// TestOrRulesMatchesOracle holds OrRules, whose exact stage is one
// verify.Verify pass over virtual OR columns, to the merge loop it
// replaced bit for bit — rules, duplicates, order, every float — on
// random matrices (small candidate lists count on the scalar kernel,
// larger ones packed), with minSim at a rule's exact similarity, and on
// 14 identical columns, where every estimate and similarity ties and
// the order rests on From and To alone. Collect must also accept the
// extended source: every virtual column in range, every row increasing,
// each virtual column the union of its pair.
func TestOrRulesMatchesOracle(t *testing.T) {
	type fixture struct {
		d         *Dataset
		shortlist map[int][]int
	}
	fixtures := map[string]fixture{}
	for seed := uint64(1); seed <= 60; seed++ {
		d, shortlist := orFixture(seed)
		fixtures[fmt.Sprintf("random-%d", seed)] = fixture{d, shortlist}
	}
	same := make([][]int, 14)
	for c := range same {
		same[c] = []int{0, 2, 3, 5, 7, 11}
	}
	tied := fixture{d: testutil.Must(NewDatasetFromColumns(12, same)), shortlist: map[int][]int{}}
	for from := range 6 {
		for c := range same {
			tied.shortlist[from] = append(tied.shortlist[from], (from+c)%len(same))
		}
	}
	fixtures["tied"] = tied

	bits := func(r OrRule) [5]uint64 {
		return [5]uint64{uint64(r.From), uint64(r.To[0]), uint64(r.To[1]), math.Float64bits(r.Estimate), math.Float64bits(r.Similarity)}
	}
	kernels := map[bool]int{}
	atThreshold, duplicates := 0, 0
	check := func(name string, f fixture, sig *Signatures, minSim float64) []OrRule {
		t.Helper()
		got, err := OrRules(f.d, sig, f.shortlist, minSim)
		if err != nil {
			t.Fatal(err)
		}
		conv := map[int32][]int32{}
		for from, tos := range f.shortlist {
			for _, c := range tos {
				conv[int32(from)] = append(conv[int32(from)], int32(c))
			}
		}
		cand := testutil.Must(rules.OrCandidates(sig.sig, conv, minSim))
		want := orRulesOracle(f.d.m, cand, minSim)
		if len(got) != len(want) {
			t.Fatalf("%s minSim %v: %d rules, oracle %d", name, minSim, len(got), len(want))
		}
		for x := range want {
			if bits(got[x]) != bits(want[x]) {
				t.Fatalf("%s minSim %v: rule %d = %+v, oracle %+v", name, minSim, x, got[x], want[x])
			}
			if x > 0 && got[x] == got[x-1] {
				duplicates++
			}
		}

		src, vcand := newOrColumns(f.d.m.Stream(), cand)
		kernels[verify.AutoPack(src.NumRows(), src.NumCols(), vcand, 0)]++
		x, err := matrix.Collect(src)
		if err != nil {
			t.Fatalf("%s minSim %v: Collect over the OR columns: %v", name, minSim, err)
		}
		m := f.d.NumCols()
		if x.NumCols() != m+len(src.ors) {
			t.Fatalf("%s: %d columns collected, want %d", name, x.NumCols(), m+len(src.ors))
		}
		for v, to := range src.ors {
			union := slices.Concat(f.d.m.Column(int(to[0])), f.d.m.Column(int(to[1])))
			slices.Sort(union)
			if col := x.Column(m + v); !slices.Equal(col, slices.Compact(union)) {
				t.Fatalf("%s: virtual column %d = %v, want C_%d ∪ C_%d = %v", name, m+v, col, to[0], to[1], union)
			}
		}
		return got
	}
	for name, f := range fixtures {
		sig := testutil.Must(ComputeSignatures(f.d, 64, 7, 0))
		for _, minSim := range []float64{0.05, 0.3, 0.6} {
			got := check(name, f, sig, minSim)
			// minSim exactly at a rule's similarity keeps that rule when
			// its estimate passes too.
			for _, r := range got {
				if r.Similarity > minSim && r.Estimate >= r.Similarity {
					atThreshold++
					at := check(name, f, sig, r.Similarity)
					if !slices.ContainsFunc(at, func(q OrRule) bool { return bits(q) == bits(r) }) {
						t.Fatalf("%s: rule %+v dropped at minSim = its similarity", name, r)
					}
					break
				}
			}
		}
	}
	t.Logf("kernels taken (packed: count) %v, %d runs at a rule's similarity, %d duplicate rules", kernels, atThreshold, duplicates)
	if kernels[false] == 0 || kernels[true] == 0 {
		t.Fatalf("kernels taken (packed: count) = %v: both must be", kernels)
	}
	if atThreshold == 0 || duplicates == 0 {
		t.Fatalf("%d runs at a rule's similarity, %d duplicate rules: the fixtures miss a case", atThreshold, duplicates)
	}
}
