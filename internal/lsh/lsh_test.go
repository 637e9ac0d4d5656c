package lsh

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

func TestProbAtLeastOnceBasics(t *testing.T) {
	if got := ProbAtLeastOnce(0, 5, 5); got != 0 {
		t.Errorf("P(0) = %v", got)
	}
	if got := ProbAtLeastOnce(1, 5, 5); got != 1 {
		t.Errorf("P(1) = %v", got)
	}
	// r=l=1: P(s) = s.
	if got := ProbAtLeastOnce(0.37, 1, 1); math.Abs(got-0.37) > 1e-12 {
		t.Errorf("P_{1,1}(0.37) = %v", got)
	}
	// Closed form check: r=2, l=3, s=0.5 -> 1-(1-0.25)^3.
	want := 1 - math.Pow(0.75, 3)
	if got := ProbAtLeastOnce(0.5, 2, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("P_{2,3}(0.5) = %v, want %v", got, want)
	}
}

func TestProbMonotonicity(t *testing.T) {
	// P increases in s and l, decreases in r (for s in (0,1)).
	for s := 0.1; s < 1; s += 0.2 {
		if ProbAtLeastOnce(s, 5, 10) >= ProbAtLeastOnce(s+0.05, 5, 10) {
			t.Errorf("P not increasing in s at %v", s)
		}
		if ProbAtLeastOnce(s, 5, 10) >= ProbAtLeastOnce(s, 5, 20) {
			t.Errorf("P not increasing in l at %v", s)
		}
		if ProbAtLeastOnce(s, 5, 10) <= ProbAtLeastOnce(s, 10, 10) {
			t.Errorf("P not decreasing in r at %v", s)
		}
	}
}

func TestStepFunctionSharpening(t *testing.T) {
	// Fig. 2a: larger (r,l) approximates a unit step better. At the
	// nominal threshold of P_{r,l}, below-threshold probabilities fall
	// and above-threshold probabilities rise as r and l grow together.
	low5, high5 := ProbAtLeastOnce(0.3, 5, 5), ProbAtLeastOnce(0.9, 5, 5)
	low20, high20 := ProbAtLeastOnce(0.3, 20, 20), ProbAtLeastOnce(0.9, 20, 20)
	if !(low20 < low5 && high20 > high5*0.9) {
		t.Errorf("sharpening failed: low %v->%v, high %v->%v", low5, low20, high5, high20)
	}
}

func TestSampledCollisionGivenAgreement(t *testing.T) {
	if got := sampledCollisionGivenAgreement(0, 40, 5, 5); got != 0 {
		t.Errorf("q(0) = %v", got)
	}
	if got := sampledCollisionGivenAgreement(40, 40, 5, 5); got != 1 {
		t.Errorf("q(k) = %v", got)
	}
	want := ProbAtLeastOnce(0.5, 5, 5)
	if got := sampledCollisionGivenAgreement(20, 40, 5, 5); math.Abs(got-want) > 1e-12 {
		t.Errorf("q(k/2) = %v, want %v", got, want)
	}
}

func TestSampledCollisionProbApproximatesP(t *testing.T) {
	// Fig. 2b: Q_{r,l,k} approximates P_{r,l}, with P always sharper,
	// and Q sharpening as k grows.
	const r, l = 10, 10
	for _, s := range []float64{0.2, 0.5, 0.8} {
		p := ProbAtLeastOnce(s, r, l)
		q40 := SampledCollisionProb(s, r, l, 40)
		q200 := SampledCollisionProb(s, r, l, 200)
		if math.Abs(q200-p) > math.Abs(q40-p)+1e-9 {
			t.Errorf("s=%v: Q with k=200 (%v) no closer to P (%v) than k=40 (%v)", s, q200, p, q40)
		}
	}
	// Q is a proper probability.
	for _, s := range []float64{0, 0.1, 0.5, 0.9, 1} {
		q := SampledCollisionProb(s, r, l, 40)
		if q < 0 || q > 1 {
			t.Errorf("Q(%v) = %v out of [0,1]", s, q)
		}
	}
}

func TestSampledCollisionSharperP(t *testing.T) {
	// "P_{r,l} always being sharper": below the crossover P <= Q is
	// false... concretely P is farther from 1/2 on both tails.
	const r, l, k = 10, 10, 40
	pLow, qLow := ProbAtLeastOnce(0.2, r, l), SampledCollisionProb(0.2, r, l, k)
	if pLow > qLow+1e-12 {
		t.Errorf("at low s, P (%v) should be below Q (%v)", pLow, qLow)
	}
	pHigh, qHigh := ProbAtLeastOnce(0.95, r, l), SampledCollisionProb(0.95, r, l, k)
	if pHigh < qHigh-1e-12 {
		t.Errorf("at high s, P (%v) should be above Q (%v)", pHigh, qHigh)
	}
}

func plantedMatrix(rng *hashing.SplitMix64, rows, cols int) (*matrix.Matrix, *pairs.Set) {
	b := matrix.NewBuilder(rows, cols)
	planted := pairs.NewSet(cols / 2)
	for c := 0; c+1 < cols; c += 4 {
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
				b.Set(r, c+1)
			}
		}
		planted.Add(int32(c), int32(c+1))
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

func TestCandidatesValidates(t *testing.T) {
	sig := &minhash.Signatures{K: 4, M: 2, Vals: make([]uint64, 8)}
	if _, _, err := Candidates(sig, 0, 2); err == nil {
		t.Error("accepted r=0")
	}
	if _, _, err := Candidates(sig, 2, 0); err == nil {
		t.Error("accepted l=0")
	}
	if _, _, err := Candidates(sig, 3, 2); err == nil {
		t.Error("accepted k < r*l")
	}
	if _, err := kernelOf(sig, 5, 2, 1, 1); err == nil {
		t.Error("sampled accepted r > k")
	}
}

func TestCandidatesFindPlantedPairs(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m, planted := plantedMatrix(rng, 800, 80)
	sig, err := mhSketch(m.Stream(), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	set, st, err := Candidates(sig, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bands != 10 {
		t.Errorf("Bands = %d, want 10", st.Bands)
	}
	for _, p := range planted.Slice() {
		if m.Similarity(int(p.I), int(p.J)) > 0.9 && !set.Contains(p.I, p.J) {
			t.Errorf("planted pair (%d,%d) missed", p.I, p.J)
		}
	}
}

func TestCandidatesEmptyColumnsSkipped(t *testing.T) {
	m := testutil.Must(matrix.New(4, [][]int32{{}, {}, {0, 1}}))
	sig, _ := mhSketch(m.Stream(), 10, 5)
	set, _, err := Candidates(sig, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if set.Contains(0, 1) {
		t.Error("two empty columns became candidates")
	}
}

func TestSampledCandidatesFindPlantedPairs(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m, planted := plantedMatrix(rng, 800, 80)
	// k = 20 < r*l = 100: must use sampling.
	sig, _ := mhSketch(m.Stream(), 20, 4)
	set, _ := scan(t, sig, 5, 20, 99, 1)
	missed := 0
	total := 0
	for _, p := range planted.Slice() {
		if m.Similarity(int(p.I), int(p.J)) > 0.9 {
			total++
			if !set.Contains(p.I, p.J) {
				missed++
			}
		}
	}
	if total > 0 && missed > total/4 {
		t.Errorf("sampled LSH missed %d/%d near-duplicate pairs", missed, total)
	}
}

// TestOnlineMatchesOffline: the band-at-a-time schedule of the online
// mode (Section 4) — each band's fresh pairs off the M-LSH index, in
// band order — finds the offline candidate set, each pair once, with the
// same bucket-pair count.
func TestOnlineMatchesOffline(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m, _ := plantedMatrix(rng, 300, 30)
	sig, _ := mhSketch(m.Stream(), 30, 7)
	off, offSt, err := Candidates(sig, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := candidate.IndexFor(context.Background(), params(sig, 3, 10, 0), fold.Sketch{MH: sig}, 1)
	if err != nil {
		t.Fatal(err)
	}
	on := pairs.NewSet(0)
	var bucketPairs int64
	var fresh []pairs.Scored
	for band := range 10 {
		var n int64
		if fresh, n, err = ix.Band(fresh[:0], band); err != nil {
			t.Fatal(err)
		}
		bucketPairs += n
		for _, p := range fresh {
			if !on.Add(p.I, p.J) {
				t.Fatalf("band %d: pair (%d,%d) fresh again", band, p.I, p.J)
			}
		}
	}
	if bucketPairs != offSt.BucketPairs {
		t.Errorf("online %d bucket pairs, offline %d", bucketPairs, offSt.BucketPairs)
	}
	sameSet(t, "online", on, off)
}

// TestCollisionRateMatchesP: empirical bucket-collision frequency over
// repeated hashing must track P_{r,l}(s).
func TestCollisionRateMatchesP(t *testing.T) {
	// Build one pair with controlled similarity ~0.5.
	rng := hashing.NewSplitMix64(6)
	b := matrix.NewBuilder(2000, 2)
	for r := 0; r < 2000; r++ {
		u := rng.Float64()
		switch {
		case u < 0.10: // both
			b.Set(r, 0)
			b.Set(r, 1)
		case u < 0.15:
			b.Set(r, 0)
		case u < 0.20:
			b.Set(r, 1)
		}
	}
	m := b.Build()
	s := m.Similarity(0, 1)
	const r, l, trials = 3, 4, 300
	collide := 0
	for trial := 0; trial < trials; trial++ {
		sig, err := mhSketch(m.Stream(), r*l, uint64(trial)*2654435761+1)
		if err != nil {
			t.Fatal(err)
		}
		set, _, err := Candidates(sig, r, l)
		if err != nil {
			t.Fatal(err)
		}
		if set.Contains(0, 1) {
			collide++
		}
	}
	want := ProbAtLeastOnce(s, r, l)
	got := float64(collide) / trials
	tol := 4*math.Sqrt(want*(1-want)/trials) + 0.02
	if math.Abs(got-want) > tol {
		t.Errorf("collision rate %v, want P(%v) = %v ± %v", got, s, want, tol)
	}
}

func TestQuickPInUnitInterval(t *testing.T) {
	f := func(sRaw uint16, rRaw, lRaw uint8) bool {
		s := float64(sRaw) / math.MaxUint16
		r := int(rRaw%30) + 1
		l := int(lRaw%30) + 1
		p := ProbAtLeastOnce(s, r, l)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sameSet(t *testing.T, label string, got, want *pairs.Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: %d candidates, want %d", label, got.Len(), want.Len())
	}
	for _, p := range want.Slice() {
		if !got.Contains(p.I, p.J) {
			t.Fatalf("%s: missing pair (%d,%d)", label, p.I, p.J)
		}
	}
}

// params is phase 2's M-LSH parameter set for bands of r rows, l of
// them, over sig: the disjoint layout when sig.K >= r·l, else the
// sampled one drawn from seed.
func params(sig *minhash.Signatures, r, l int, seed uint64) candidate.Params {
	return candidate.Params{Algo: fold.MinLSH, K: sig.K, R: r, L: l, Seed: seed}
}

// kernelOf is phase 2's M-LSH kernel under params(sig, r, l, seed),
// its index built across workers goroutines.
func kernelOf(sig *minhash.Signatures, r, l int, seed uint64, workers int) (*candidate.Kernel, error) {
	return candidate.For(context.Background(), params(sig, r, l, seed), fold.Sketch{MH: sig}, workers)
}

// scan is the kernel's scan across workers goroutines as a set, with
// its bucket pairs.
func scan(t *testing.T, sig *minhash.Signatures, r, l int, seed uint64, workers int) (*pairs.Set, int64) {
	t.Helper()
	k, err := kernelOf(sig, r, l, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	out, bucketPairs, err := k.Scan(context.Background(), nil, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := pairs.NewSet(len(out))
	for _, p := range out {
		if !set.Add(p.I, p.J) {
			t.Fatalf("pair (%d,%d) emitted twice", p.I, p.J)
		}
	}
	return set, bucketPairs
}

// mapBands is the test-local oracle for the band kernel: the bucket-map
// formulation of banding, one Go map per band.
func mapBands(sig *minhash.Signatures, bands [][]int) (*pairs.Set, int64) {
	set := pairs.NewSet(0)
	var bucketPairs int64
	for _, rows := range bands {
		buckets := make(map[uint64][]int32)
		for c := 0; c < sig.M; c++ {
			key := make([]uint64, 0, len(rows))
			empty := true
			for _, l := range rows {
				v := sig.Vals[l*sig.M+c]
				empty = empty && v == minhash.Empty
				key = append(key, v)
			}
			if !empty {
				h := hashing.KeyStart
				for _, v := range key {
					h = h.Add(v)
				}
				k := h.Sum()
				buckets[k] = append(buckets[k], int32(c))
			}
		}
		for _, cols := range buckets {
			for i := range cols {
				for _, j := range cols[i+1:] {
					bucketPairs++
					set.Add(cols[i], j)
				}
			}
		}
	}
	return set, bucketPairs
}

// layout is the band layout the kernel lays out under params(sig, r,
// l, seed), derived here on its own: r consecutive rows a band, or r of
// the k drawn per band from SplitMix64 at seed+1.
func layout(k, r, l int, seed uint64) [][]int {
	rows := make([][]int, l)
	rng := hashing.NewSplitMix64(seed + 1)
	for b := range rows {
		if k >= r*l {
			for i := range r {
				rows[b] = append(rows[b], b*r+i)
			}
		} else {
			rows[b] = rng.Perm(k)[:r]
		}
	}
	return rows
}

// TestBandingMatchesMapOracle checks phase 2's M-LSH kernel against the
// map oracle, for the disjoint and the sampled layout, over the full
// scan and over three column ranges: same candidate set, each pair
// once, same BucketPairs. (Every other partition and scheduler is a
// cell of candidate.TestPhase2Matrix against the full range, and the
// band walk is candidate.TestMLSHMatchesBandWalk's oracle.)
func TestBandingMatchesMapOracle(t *testing.T) {
	sig := bandFixture(t)
	const r, seed = 3, 77
	for name, l := range map[string]int{"disjoint": 8, "sampled": 11} {
		want, wantBP := mapBands(sig, layout(sig.K, r, l, seed))
		if wantBP < int64(20*l) || want.Len() < 40 {
			t.Fatalf("%s: fixture too thin: %d bucket pairs, %d candidates", name, wantBP, want.Len())
		}
		got, bucketPairs := scan(t, sig, r, l, seed, 1)
		if bucketPairs != wantBP {
			t.Errorf("%s: %d bucket pairs, oracle %d", name, bucketPairs, wantBP)
		}
		sameSet(t, name, got, want)
		k, err := kernelOf(sig, r, l, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		ranged := pairs.NewSet(0)
		bucketPairs = 0
		for _, cut := range [][2]int{{0, 40}, {40, 41}, {41, sig.M}} {
			ps, n, err := k.Range(nil, cut[0], cut[1])
			if err != nil {
				t.Fatal(err)
			}
			bucketPairs += n
			for _, p := range ps {
				if !ranged.Add(p.I, p.J) {
					t.Fatalf("%s: pair (%d,%d) in two ranges", name, p.I, p.J)
				}
			}
		}
		if bucketPairs != wantBP {
			t.Errorf("%s ranges: %d bucket pairs, oracle %d", name, bucketPairs, wantBP)
		}
		sameSet(t, name+" ranges", ranged, want)
	}
	set, st, err := Candidates(sig, r, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, wantBP := mapBands(sig, layout(sig.K, r, 8, seed))
	if st.BucketPairs != wantBP || st.Bands != 8 || st.Candidates != want.Len() {
		t.Errorf("Candidates stats %+v, oracle %d bucket pairs, %d candidates", st, wantBP, want.Len())
	}
	sameSet(t, "Candidates", set, want)
}

// bandFixture mixes planted near-duplicates (buckets of two), identical
// column groups (buckets of five, ten pairs each) and empty columns.
func bandFixture(t *testing.T) *minhash.Signatures {
	t.Helper()
	rng := hashing.NewSplitMix64(29)
	const rows, cols = 300, 120
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < 100; c += 2 { // near-duplicate pairs
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
				if rng.Float64() < 0.9 {
					b.Set(r, c+1)
				}
			}
		}
	}
	for r := 0; r < rows; r++ { // 100..104 identical, 105..109 identical, 110..119 empty
		if rng.Float64() < 0.2 {
			for c := 100; c < 105; c++ {
				b.Set(r, c)
			}
		}
		if rng.Float64() < 0.2 {
			for c := 105; c < 110; c++ {
				b.Set(r, c)
			}
		}
	}
	sig, err := mhSketch(b.Build().Stream(), 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	return sig
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
