package lsh

import (
	"math"
	"testing"
	"testing/quick"

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
	if _, err := Sampled(sig, 5, 2, 1); err == nil {
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
	b, err := Sampled(sig, 5, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	set, _ := union(b, []int{0, 20})
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
// mode (Section 4) — one band per range, in order — finds the offline
// candidate set with the same bucket-pair count.
func TestOnlineMatchesOffline(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m, _ := plantedMatrix(rng, 300, 30)
	sig, _ := mhSketch(m.Stream(), 30, 7)
	off, offSt, err := Candidates(sig, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Disjoint(sig, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	on, bucketPairs := union(b, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
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
