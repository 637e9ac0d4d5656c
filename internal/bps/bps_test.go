package bps

import (
	"testing"

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

func mustSupports(t *testing.T, src matrix.RowSource) []int64 {
	t.Helper()
	sup, err := Supports(src)
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

func TestSupports(t *testing.T) {
	m := testutil.Must(matrix.New(4, [][]int32{{0, 1, 2}, {1}, {}, {0, 3}}))
	sup := mustSupports(t, m.Stream())
	want := []int64{3, 1, 0, 2}
	for c, s := range sup {
		if s != want[c] {
			t.Errorf("sup[%d] = %d, want %d", c, s, want[c])
		}
	}
	if ls := SupportsFromLister(m.Stream().(matrix.ColumnLister)); len(ls) != len(sup) {
		t.Fatalf("lister supports length %d != %d", len(ls), len(sup))
	} else {
		for c := range ls {
			if ls[c] != sup[c] {
				t.Errorf("lister sup[%d] = %d, scan says %d", c, ls[c], sup[c])
			}
		}
	}
}

type badRowSource struct {
	rows, cols int
	data       [][]int32
}

func (s *badRowSource) NumRows() int { return s.rows }
func (s *badRowSource) NumCols() int { return s.cols }
func (s *badRowSource) Scan(fn func(int, []int32) error) error {
	for r, cs := range s.data {
		if err := fn(r, cs); err != nil {
			return err
		}
	}
	return nil
}

func TestSupportsRejectsOutOfRange(t *testing.T) {
	src := &badRowSource{rows: 2, cols: 3, data: [][]int32{{0, 1}, {2, 7}}}
	if _, err := Supports(src); err == nil {
		t.Error("out-of-range column accepted")
	}
	src = &badRowSource{rows: 1, cols: 3, data: [][]int32{{-1}}}
	if _, err := Supports(src); err == nil {
		t.Error("negative column accepted")
	}
}

func TestSampleValidation(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}, {1}}))
	sup := mustSupports(t, m.Stream())
	bad := []Options{
		{Threshold: 0, Budget: 8},
		{Threshold: 1.5, Budget: 8},
		{Threshold: 0.5, Delta: 1, Budget: 8},
		{Threshold: 0.5, Delta: -0.1, Budget: 8},
		{Threshold: 0.5, Budget: 0},
	}
	for _, opt := range bad {
		if _, _, err := Sample(m.Stream(), sup, opt); err == nil {
			t.Errorf("bad options accepted: %+v", opt)
		}
	}
}

func TestSampleRejectsOutOfRange(t *testing.T) {
	src := &badRowSource{rows: 2, cols: 3, data: [][]int32{{0, 1}, {1, 9}}}
	sup := []int64{1, 2, 0}
	for _, workers := range []int{1, 4} {
		_, _, err := Sample(src, sup, Options{Threshold: 0.5, Budget: 8, Workers: workers})
		if err == nil {
			t.Errorf("workers=%d: out-of-range column accepted", workers)
		}
	}
	testutil.CheckGoroutines(t)
}

// TestSampleInvariants: on random matrices at several densities and
// budgets, the sampler maintains its structural invariants — canonical
// pairs only (no self-pairs, I < J, columns in range), exact dedup
// (each pair appears once), accepted counts bounded by inspected draws,
// Inspected exactly Σ b(b-1)/2, and every candidate's estimate in
// [0, 1].
func TestSampleInvariants(t *testing.T) {
	rng := hashing.NewSplitMix64(42)
	for _, density := range []float64{0.01, 0.05, 0.15} {
		for _, budget := range []int{1, 8, 64} {
			m := randomMatrix(rng, 400, 40, density)
			src := m.Stream()
			sup := mustSupports(t, src)
			cand, st, err := Sample(src, sup, Options{Threshold: 0.4, Delta: 0.2, Budget: budget, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			var wantInspected int64
			if err := src.Scan(func(row int, cols []int32) error {
				b := int64(len(cols))
				wantInspected += b * (b - 1) / 2
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if st.Inspected != wantInspected {
				t.Errorf("d=%v λ=%d: Inspected %d, want Σb(b-1)/2 = %d", density, budget, st.Inspected, wantInspected)
			}
			if st.Accepts > st.Inspected {
				t.Errorf("d=%v λ=%d: Accepts %d > Inspected %d", density, budget, st.Accepts, st.Inspected)
			}
			if st.Dups < 0 || st.Dups > st.Accepts {
				t.Errorf("d=%v λ=%d: Dups %d outside [0, Accepts=%d]", density, budget, st.Dups, st.Accepts)
			}
			if int64(len(cand)) > st.Accepts-st.Dups {
				t.Errorf("d=%v λ=%d: %d candidates but only %d distinct sampled pairs", density, budget, len(cand), st.Accepts-st.Dups)
			}
			seen := make(map[pairs.Pair]bool, len(cand))
			for k, p := range cand {
				if p.I >= p.J {
					t.Fatalf("d=%v λ=%d: non-canonical pair (%d,%d)", density, budget, p.I, p.J)
				}
				if p.I < 0 || int(p.J) >= src.NumCols() {
					t.Fatalf("d=%v λ=%d: pair (%d,%d) outside [0,%d)", density, budget, p.I, p.J, src.NumCols())
				}
				if seen[p.Pair] {
					t.Fatalf("d=%v λ=%d: duplicate candidate (%d,%d)", density, budget, p.I, p.J)
				}
				seen[p.Pair] = true
				if p.Estimate < 0 || p.Estimate > 1 {
					t.Errorf("d=%v λ=%d: estimate %v outside [0,1]", density, budget, p.Estimate)
				}
				if k > 0 && (cand[k-1].I > p.I || (cand[k-1].I == p.I && cand[k-1].J >= p.J)) {
					t.Fatalf("d=%v λ=%d: output not sorted by (I,J) at %d", density, budget, k)
				}
			}
		}
	}
}

// TestSampleSerialParallelIdentical: the accept decision is a pure
// per-(row,pair) hash, so any worker count yields bit-identical
// candidates and identical sampling totals (Shards excepted — serial
// runs never shard).
func TestSampleSerialParallelIdentical(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	m := randomMatrix(rng, 600, 50, 0.08)
	src := m.Stream()
	sup := mustSupports(t, src)
	opt := Options{Threshold: 0.4, Delta: 0.2, Budget: 16, Seed: 3}
	serial, sst, err := Sample(src, sup, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sst.Shards != 0 {
		t.Errorf("serial run reports %d shards", sst.Shards)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		opt.Workers = workers
		par, pst, err := Sample(src, sup, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d candidates, serial has %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: candidate %d = %+v, serial %+v", workers, i, par[i], serial[i])
			}
		}
		if pst.Inspected != sst.Inspected || pst.Accepts != sst.Accepts || pst.Dups != sst.Dups {
			t.Errorf("workers=%d: stats %+v, serial %+v", workers, pst, sst)
		}
		if pst.Shards <= 0 {
			t.Errorf("workers=%d: no shards reported", workers)
		}
	}
	testutil.CheckGoroutines(t)
}

// TestSampleSparseIsExact: when every support product stays below the
// acceptance scale Δ, every draw is accepted (p = 1) and the sampled
// counts are exact co-occurrence counts — the no-false-negative regime
// for low-support (interesting) pairs.
func TestSampleSparseIsExact(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	m := randomMatrix(rng, 300, 30, 0.02)
	src := m.Stream()
	sup := mustSupports(t, src)
	cand, st, err := Sample(src, sup, Options{Threshold: 0.5, Delta: 0.99, Budget: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var smax int64
	for _, s := range sup {
		if s > smax {
			smax = s
		}
	}
	scale := 64 * 1.5 * float64(smax) / (2 * 0.5)
	for _, p := range cand {
		if prod := float64(sup[p.I]) * float64(sup[p.J]); prod >= scale {
			t.Skipf("support product %v reaches scale %v; matrix too dense for the exact regime", prod, scale)
		}
	}
	if st.Accepts != st.Inspected {
		t.Errorf("sparse regime dropped draws: accepts %d != inspected %d", st.Accepts, st.Inspected)
	}
	// Exact counts mean the estimate equals the true similarity for
	// every candidate.
	for _, p := range cand {
		a, b := m.Column(int(p.I)), m.Column(int(p.J))
		inter := intersectCount(a, b)
		want := float64(inter) / float64(len(a)+len(b)-inter)
		if diff := p.Estimate - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("pair (%d,%d): estimate %v, exact %v", p.I, p.J, p.Estimate, want)
		}
	}
}

func intersectCount(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// TestSampleSeedSensitivity: different seeds draw different sample sets
// in the subsampled regime (a sanity check that the hash actually
// depends on the seed), while the same seed reproduces itself exactly.
func TestSampleSeedSensitivity(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m := randomMatrix(rng, 800, 30, 0.3) // dense: supports high, p < 1
	src := m.Stream()
	sup := mustSupports(t, src)
	opt := Options{Threshold: 0.3, Delta: 0.2, Budget: 2, Seed: 1}
	a1, st1, err := Sample(src, sup, opt)
	if err != nil {
		t.Fatal(err)
	}
	a2, st2, err := Sample(src, sup, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) || st1 != st2 {
		t.Fatalf("same seed disagrees: %d/%+v vs %d/%+v", len(a1), st1, len(a2), st2)
	}
	if st1.Accepts == st1.Inspected {
		t.Fatal("matrix not dense enough to exercise the subsampled regime")
	}
	opt.Seed = 2
	_, st3, err := Sample(src, sup, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Accepts == st1.Accepts && st3.Dups == st1.Dups {
		t.Error("different seeds produced identical sampling totals; hash ignores the seed?")
	}
}

// TestSampleEmpty: degenerate shapes — no rows, no columns, empty rows
// — sample nothing and error nowhere.
func TestSampleEmpty(t *testing.T) {
	for _, m := range []*matrix.Matrix{
		testutil.Must(matrix.New(0, nil)),
		testutil.Must(matrix.New(5, [][]int32{})),
		testutil.Must(matrix.New(3, [][]int32{{}, {}})),
	} {
		src := m.Stream()
		sup := mustSupports(t, src)
		cand, st, err := Sample(src, sup, Options{Threshold: 0.5, Budget: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(cand) != 0 || st.Inspected != 0 || st.Accepts != 0 {
			t.Errorf("empty matrix produced cand=%v st=%+v", cand, st)
		}
	}
}
