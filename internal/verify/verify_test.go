package verify

import (
	"math"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
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

func TestExactValidation(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}, {1}}))
	if _, _, err := Exact(m.Stream(), nil, -0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, _, err := Exact(m.Stream(), []pairs.Scored{{Pair: pairs.Pair{I: 0, J: 5}}}, 0.5); err == nil {
		t.Error("out-of-range candidate accepted")
	}
	if _, _, err := Exact(m.Stream(), []pairs.Scored{{Pair: pairs.Pair{I: 1, J: 1}}}, 0.5); err == nil {
		t.Error("self pair accepted")
	}
}

func TestExactEmptyCandidates(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}, {1}}))
	out, st, err := Exact(m.Stream(), nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.In != 0 || st.Out != 0 {
		t.Errorf("empty input produced out=%v st=%+v", out, st)
	}
}

// TestExactMatchesColumnMath: the streaming counters must reproduce the
// column-major exact similarity for every candidate.
func TestExactMatchesColumnMath(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 300, 20, 0.15)
	var cand []pairs.Scored
	for i := int32(0); i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			cand = append(cand, pairs.Scored{Pair: pairs.Pair{I: i, J: j}, Estimate: 0.5})
		}
	}
	out, st, err := Exact(m.Stream(), cand, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.In != len(cand) {
		t.Errorf("st.In = %d, want %d", st.In, len(cand))
	}
	got := map[pairs.Pair]float64{}
	for _, p := range out {
		got[p.Pair] = p.Exact
		if p.Estimate != 0.5 {
			t.Errorf("estimate not preserved on (%d,%d)", p.I, p.J)
		}
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			want := m.Similarity(i, j)
			key := pairs.Pair{I: int32(i), J: int32(j)}
			exact, ok := got[key]
			if m.ColumnSize(i)+m.ColumnSize(j) == 0 {
				if ok {
					t.Errorf("pair of empty columns (%d,%d) reported", i, j)
				}
				continue
			}
			if !ok {
				t.Errorf("pair (%d,%d) missing from threshold-0 verification", i, j)
				continue
			}
			if math.Abs(exact-want) > 1e-12 {
				t.Errorf("exact(%d,%d) = %v, want %v", i, j, exact, want)
			}
		}
	}
}

func TestExactThresholdFilters(t *testing.T) {
	m := testutil.Must(matrix.New(4, [][]int32{
		{0, 1, 2},
		{0, 1, 2}, // identical to c0: sim 1
		{0, 3},    // sim(c0,c2) = 1/4
	}))
	cand := []pairs.Scored{
		{Pair: pairs.Pair{I: 0, J: 1}},
		{Pair: pairs.Pair{I: 0, J: 2}},
	}
	out, st, err := Exact(m.Stream(), cand, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Out != 1 || len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Pair != (pairs.Pair{I: 0, J: 1}) || out[0].Exact != 1 {
		t.Errorf("survivor = %+v", out[0])
	}
}

// zeroScored attaches zero estimates to bare pairs, the form LSH bucket
// collisions reach verification in.
func zeroScored(ps []pairs.Pair) []pairs.Scored {
	out := make([]pairs.Scored, len(ps))
	for i, p := range ps {
		out[i] = pairs.Scored{Pair: p}
	}
	return out
}

func TestExactPairs(t *testing.T) {
	m := testutil.Must(matrix.New(3, [][]int32{{0, 1}, {0, 1}}))
	out, _, err := Exact(m.Stream(), zeroScored([]pairs.Pair{{I: 0, J: 1}}), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Exact != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestAllPairsValidation(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}}))
	for _, th := range []float64{0, -1, 1.5} {
		if _, err := AllPairs(m, th); err == nil {
			t.Errorf("AllPairs accepted threshold %v", th)
		}
	}
}

// TestAllPairsMatchesNaive: AllPairs must equal the O(m²) column-major
// enumeration.
func TestAllPairsMatchesNaive(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m := randomMatrix(rng, 200, 25, 0.2)
	const threshold = 0.1
	got, err := AllPairs(m, threshold)
	if err != nil {
		t.Fatal(err)
	}
	gotSet := map[pairs.Pair]float64{}
	for _, p := range got {
		gotSet[p.Pair] = p.Exact
	}
	count := 0
	for i := 0; i < m.NumCols(); i++ {
		for j := i + 1; j < m.NumCols(); j++ {
			s := m.Similarity(i, j)
			key := pairs.Pair{I: int32(i), J: int32(j)}
			if s >= threshold {
				count++
				if e, ok := gotSet[key]; !ok {
					t.Errorf("AllPairs missed (%d,%d) sim %v", i, j, s)
				} else if math.Abs(e-s) > 1e-12 {
					t.Errorf("AllPairs sim (%d,%d) = %v, want %v", i, j, e, s)
				}
			} else if _, ok := gotSet[key]; ok {
				t.Errorf("AllPairs included (%d,%d) sim %v below threshold", i, j, s)
			}
		}
	}
	if len(got) != count {
		t.Errorf("AllPairs returned %d pairs, want %d", len(got), count)
	}
}

func TestAllPairsSorted(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	m := randomMatrix(rng, 100, 15, 0.3)
	got, err := AllPairs(m, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Exact > got[i-1].Exact {
			t.Fatal("AllPairs not sorted by decreasing similarity")
		}
	}
}

func TestCountInRanges(t *testing.T) {
	ps := []pairs.Scored{
		{Exact: 0.1}, {Exact: 0.25}, {Exact: 0.5}, {Exact: 0.75}, {Exact: 1.0},
	}
	edges := []float64{0, 0.25, 0.5, 0.75, 1.0}
	counts := CountInRanges(ps, edges)
	// Half-open buckets [lo,hi): 0.1->b0, 0.25->b1, 0.5->b2; the final
	// bucket is closed so both 0.75 and 1.0 land in b3.
	want := []int{1, 1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
}

// TestPipelineRemovesFalsePositives: feeding deliberately wrong
// candidates through Exact must keep only genuinely similar pairs.
func TestPipelineRemovesFalsePositives(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m := randomMatrix(rng, 500, 30, 0.05)
	truth, err := AllPairs(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates: every pair (lots of false positives).
	var cand []pairs.Pair
	for i := int32(0); i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			cand = append(cand, pairs.Pair{I: i, J: j})
		}
	}
	out, _, err := Exact(m.Stream(), zeroScored(cand), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(truth) {
		t.Fatalf("verified %d pairs, ground truth %d", len(out), len(truth))
	}
}

func TestQuickExactAgreesWithSimilarity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		m := randomMatrix(rng, 60, 8, 0.3)
		var cand []pairs.Scored
		for i := int32(0); i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				cand = append(cand, pairs.Scored{Pair: pairs.Pair{I: i, J: j}})
			}
		}
		out, _, err := Exact(m.Stream(), cand, 0)
		if err != nil {
			return false
		}
		for _, p := range out {
			if math.Abs(p.Exact-m.Similarity(int(p.I), int(p.J))) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
