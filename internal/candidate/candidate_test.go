package candidate

import (
	"testing"
	"testing/quick"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

func randomMatrix(rng *hashing.SplitMix64, rows, cols int, density float64) *matrix.Matrix {
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				b.Set(r, c)
			}
		}
	}
	return b.Build()
}

// plantedMatrix returns a matrix with `pairsWanted` planted
// high-similarity column pairs among otherwise independent columns.
func plantedMatrix(rng *hashing.SplitMix64, rows, cols int) (*matrix.Matrix, *pairs.Set) {
	b := matrix.NewBuilder(rows, cols)
	planted := pairs.NewSet(cols / 2)
	for c := 0; c+1 < cols; c += 4 {
		// Columns c, c+1: near-duplicates.
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
				b.Set(r, c+1)
			}
		}
		planted.Add(int32(c), int32(c+1))
		// Columns c+2, c+3: independent noise.
		for off := 2; off < 4 && c+off < cols; off++ {
			for r := 0; r < rows; r++ {
				if rng.Float64() < 0.1 {
					b.Set(r, c+off)
				}
			}
		}
	}
	return b.Build(), planted
}

func pairSetOf(ps []pairs.Scored) *pairs.Set {
	s := pairs.NewSet(len(ps))
	for _, p := range ps {
		s.Add(p.I, p.J)
	}
	return s
}

func TestRowSortValidatesCutoff(t *testing.T) {
	sig := &minhash.Signatures{K: 1, M: 1, Vals: []uint64{1}}
	for _, c := range []float64{0, -1, 1.5} {
		if _, _, err := RowSortMH(sig, c); err == nil {
			t.Errorf("RowSortMH accepted cutoff %v", c)
		}
		if _, _, err := HashCountMH(sig, c); err == nil {
			t.Errorf("HashCountMH accepted cutoff %v", c)
		}
		if _, _, err := BruteForceMH(sig, c); err == nil {
			t.Errorf("BruteForceMH accepted cutoff %v", c)
		}
		if _, _, err := BruteForceKMH(&kminhash.Sketches{K: 1}, c); err == nil {
			t.Errorf("BruteForceKMH accepted cutoff %v", c)
		}
	}
	if _, _, err := HashCountKMH(&kminhash.Sketches{K: 1}, KMHOptions{BiasedCutoff: 0}); err == nil {
		t.Error("HashCountKMH accepted zero biased cutoff")
	}
	if _, _, err := HashCountKMH(&kminhash.Sketches{K: 1}, KMHOptions{BiasedCutoff: 0.5, UnbiasedCutoff: 2}); err == nil {
		t.Error("HashCountKMH accepted unbiased cutoff > 1")
	}
}

// TestRowSortMatchesBruteForce: Row-Sorting must produce exactly the
// brute-force candidate set with identical estimates.
func TestRowSortMatchesBruteForce(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 400, 40)
	sig, err := mhSketch(m.Stream(), 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []float64{0.2, 0.5, 0.8} {
		got, _, err := RowSortMH(sig, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := BruteForceMH(sig, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, got, want, cutoff)
	}
}

// TestHashCountMatchesBruteForce: Hash-Count must also agree exactly.
func TestHashCountMatchesBruteForce(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m, _ := plantedMatrix(rng, 400, 40)
	sig, err := mhSketch(m.Stream(), 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []float64{0.2, 0.5, 0.8} {
		got, _, err := HashCountMH(sig, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := BruteForceMH(sig, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, got, want, cutoff)
	}
}

func assertSamePairs(t *testing.T, got, want []pairs.Scored, cutoff float64) {
	t.Helper()
	gs, ws := pairSetOf(got), pairSetOf(want)
	if gs.Len() != len(got) {
		t.Errorf("cutoff %v: duplicate pairs emitted", cutoff)
	}
	for _, p := range want {
		if !gs.Contains(p.I, p.J) {
			t.Errorf("cutoff %v: missing pair (%d,%d) est %v", cutoff, p.I, p.J, p.Estimate)
		}
	}
	for _, p := range got {
		if !ws.Contains(p.I, p.J) {
			t.Errorf("cutoff %v: extra pair (%d,%d) est %v", cutoff, p.I, p.J, p.Estimate)
		}
	}
	// Estimates must match exactly for common pairs.
	type key struct{ i, j int32 }
	we := map[key]float64{}
	for _, p := range want {
		we[key{p.I, p.J}] = p.Estimate
	}
	for _, p := range got {
		if e, ok := we[key{p.I, p.J}]; ok && e != p.Estimate {
			t.Errorf("cutoff %v: estimate mismatch on (%d,%d): %v vs %v", cutoff, p.I, p.J, p.Estimate, e)
		}
	}
}

func TestEmptyColumnsNeverPair(t *testing.T) {
	m := testutil.Must(matrix.New(4, [][]int32{{}, {}, {0, 1, 2, 3}}))
	sig, _ := mhSketch(m.Stream(), 10, 3)
	for _, gen := range []func() ([]pairs.Scored, Stats, error){
		func() ([]pairs.Scored, Stats, error) { return RowSortMH(sig, 0.5) },
		func() ([]pairs.Scored, Stats, error) { return HashCountMH(sig, 0.5) },
	} {
		out, _, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out {
			if p.I == 0 && p.J == 1 {
				t.Error("two empty columns became a candidate")
			}
		}
	}
}

func TestRowSortRecallOnPlantedPairs(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m, planted := plantedMatrix(rng, 600, 60)
	sig, _ := mhSketch(m.Stream(), 50, 11)
	out, _, err := RowSortMH(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := pairSetOf(out)
	for _, p := range planted.Slice() {
		if m.Similarity(int(p.I), int(p.J)) > 0.8 && !found.Contains(p.I, p.J) {
			t.Errorf("planted pair (%d,%d) sim %v missed", p.I, p.J, m.Similarity(int(p.I), int(p.J)))
		}
	}
}

func TestHashCountKMHRecall(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m, planted := plantedMatrix(rng, 600, 60)
	sk, err := kmhSketch(m.Stream(), 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := HashCountKMH(sk, KMHOptions{BiasedCutoff: 0.3, UnbiasedCutoff: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	found := pairSetOf(out)
	for _, p := range planted.Slice() {
		if m.Similarity(int(p.I), int(p.J)) > 0.85 && !found.Contains(p.I, p.J) {
			t.Errorf("planted pair (%d,%d) sim %v missed by K-MH",
				p.I, p.J, m.Similarity(int(p.I), int(p.J)))
		}
	}
	// Unbiased estimates attached must be in range and above cutoff.
	for _, p := range out {
		if p.Estimate < 0.5 || p.Estimate > 1 {
			t.Errorf("estimate %v outside [0.5,1]", p.Estimate)
		}
	}
}

// TestHashCountKMHSubsetOfBruteForce: every pair that both passes the
// brute-force unbiased cutoff AND shares at least one signature value
// should be found; pairs reported must all pass the unbiased cutoff.
func TestHashCountKMHConsistentWithBruteForce(t *testing.T) {
	rng := hashing.NewSplitMix64(6)
	m, _ := plantedMatrix(rng, 300, 30)
	sk, _ := kmhSketch(m.Stream(), 20, 17)
	const cutoff = 0.5
	got, _, err := HashCountKMH(sk, KMHOptions{BiasedCutoff: 0.01, UnbiasedCutoff: cutoff})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BruteForceKMH(sk, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	// With a negligible biased cutoff, Hash-Count sees every pair with
	// a non-empty signature intersection; any pair with positive
	// unbiased estimate has one, so the sets must coincide (pairs with
	// unbiased cutoff > 0).
	assertSamePairs(t, got, want, cutoff)
}

func TestStatsIncrements(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	m, _ := plantedMatrix(rng, 200, 20)
	sig, _ := mhSketch(m.Stream(), 10, 19)
	_, stRS, err := RowSortMH(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, stBF, err := BruteForceMH(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stRS.Increments == 0 {
		t.Error("RowSort reported zero increments on data with planted pairs")
	}
	if stRS.Increments >= stBF.Increments {
		t.Errorf("RowSort increments %d not below brute force %d", stRS.Increments, stBF.Increments)
	}
}

func TestCeilFrac(t *testing.T) {
	cases := []struct {
		cutoff float64
		k      int
		want   int
	}{
		{0.5, 10, 5},
		{0.55, 10, 6},
		{0.01, 10, 1},
		{1.0, 7, 7},
		{0.001, 5, 1},
	}
	for _, c := range cases {
		if got := ceilFrac(c.cutoff, c.k); got != c.want {
			t.Errorf("ceilFrac(%v,%d) = %d, want %d", c.cutoff, c.k, got, c.want)
		}
	}
}

func TestQuickGeneratorsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		m := randomMatrix(rng, 80, 12, 0.2)
		sig, err := mhSketch(m.Stream(), 8, seed^0x5555)
		if err != nil {
			return false
		}
		a, _, err := RowSortMH(sig, 0.4)
		if err != nil {
			return false
		}
		b, _, err := HashCountMH(sig, 0.4)
		if err != nil {
			return false
		}
		c, _, err := BruteForceMH(sig, 0.4)
		if err != nil {
			return false
		}
		as, bs, cs := pairSetOf(a), pairSetOf(b), pairSetOf(c)
		if as.Len() != bs.Len() || as.Len() != cs.Len() {
			return false
		}
		for _, p := range c {
			if !as.Contains(p.I, p.J) || !bs.Contains(p.I, p.J) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// foldSketch runs algo's phase-1 fold over src on one worker.
func foldSketch(src matrix.RowSource, algo fold.Algo, k int, seed uint64) (fold.Sketch, error) {
	f, _ := fold.For(algo)
	st, err := f.New(src.NumCols(), k, seed)
	if err != nil {
		return fold.Sketch{}, err
	}
	if _, err := fold.FoldStream(src, st, 1); err != nil {
		return fold.Sketch{}, err
	}
	return st.Finish(), nil
}

// mhSketch folds src into k min-hash values per column through phase
// 1's own fold.
func mhSketch(src matrix.RowSource, k int, seed uint64) (*minhash.Signatures, error) {
	sk, err := foldSketch(src, fold.MinHash, k, seed)
	return sk.MH, err
}

// kmhSketch folds src into the bottom-k sketch of every column through
// phase 1's own fold.
func kmhSketch(src matrix.RowSource, k int, seed uint64) (*kminhash.Sketches, error) {
	sk, err := foldSketch(src, fold.KMinHash, k, seed)
	return sk.KMH, err
}
