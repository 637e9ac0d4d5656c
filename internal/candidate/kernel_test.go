package candidate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// The phase-2 block of the equivalence matrix (ROADMAP item C): every
// scheme's kernel, under every scheduler shape, against the serial full
// range of the same kernel. The brute-force and map oracles that pin
// the serial full range itself are candidate_test.go, wide_test.go,
// TestMLSHMatchesBandWalk and internal/lsh's TestBandingMatchesMapOracle.

// kernelOf wraps a ranger built by hand — the Hash-Count attribution
// over MH signatures, which no Params selects — as its scheme's kernel.
func kernelOf(t testing.TB, algo fold.Algo, r ranger) *Kernel {
	t.Helper()
	s, err := SchemeFor(Params{Algo: algo}, r.units())
	if err != nil {
		t.Fatal(err)
	}
	return &Kernel{Scheme: s, r: r}
}

func mustFor(t testing.TB, p Params, sk fold.Sketch, workers int) *Kernel {
	t.Helper()
	k, err := For(context.Background(), p, sk, workers)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sameCandidates is the matrix's single assertion: got equals want pair
// for pair, in order, with identical Estimate bits, and the work counts
// agree.
func sameCandidates(t *testing.T, got []pairs.Scored, gotWork int64, want []pairs.Scored, wantWork int64) {
	t.Helper()
	if gotWork != wantWork {
		t.Errorf("work %d, serial full range %d", gotWork, wantWork)
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates, serial full range %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Pair != want[i].Pair || math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) {
			t.Fatalf("candidate %d = %+v, serial full range %+v", i, got[i], want[i])
		}
	}
}

// sameColumn is the Column block's single assertion: Column(col) holds,
// each once, the pairs of the full scan that contain col, with
// identical Estimate bits, appended after what dst already held.
func sameColumn(t *testing.T, k *Kernel, col int, full []pairs.Scored) {
	t.Helper()
	kept := pairs.Scored{Pair: pairs.Pair{I: -1, J: -2}}
	got, _, err := k.Column([]pairs.Scored{kept}, col)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != kept {
		t.Fatalf("column %d overwrote dst", col)
	}
	isColumnOf(t, got[1:], col, full)
}

func isColumnOf(t *testing.T, got []pairs.Scored, col int, full []pairs.Scored) {
	t.Helper()
	var want []pairs.Scored
	for _, p := range full {
		if int(p.I) == col || int(p.J) == col {
			want = append(want, p)
		}
	}
	pairs.SortByKey(got)
	pairs.SortByKey(want)
	if len(got) != len(want) {
		t.Fatalf("column %d: %d candidates, filtered full scan %d", col, len(got), len(want))
	}
	for i := range want {
		if got[i].Pair != want[i].Pair || math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) {
			t.Fatalf("column %d candidate %d = %+v, filtered full scan %+v", col, i, got[i], want[i])
		}
	}
}

// fullRange is the reference every cell compares with.
func fullRange(t *testing.T, k *Kernel) ([]pairs.Scored, int64) {
	t.Helper()
	out, work, err := k.Range(nil, 0, k.Units())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("fixture emitted no candidates")
	}
	return out, work
}

// dealt answers the ranges cuts[i]..cuts[i+1] the way dist does: each of
// `workers` independent kernels — forks here, processes there — takes
// every workers-th range, concurrently, and the answers are concatenated
// in range order.
func dealt(t *testing.T, k *Kernel, cuts []int, workers int) ([]pairs.Scored, int64) {
	t.Helper()
	n := len(cuts) - 1
	workers = min(workers, n)
	parts := make([][]pairs.Scored, n)
	works := make([]int64, n)
	errs := make([]error, workers)
	kernels := []*Kernel{k}
	for len(kernels) < workers {
		kernels = append(kernels, &Kernel{Scheme: k.Scheme, r: k.r.fork()})
	}
	var wg sync.WaitGroup
	for w, kw := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				parts[i], works[i], errs[w] = kw.Range(nil, cuts[i], cuts[i+1])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	var all []pairs.Scored
	var work int64
	for i, part := range parts {
		all = append(all, part...)
		work += works[i]
	}
	return all, work
}

// schedules are the range shapes of the matrix over n units: three
// uneven ranges whose inner boundaries fall inside a colChunk (with an
// empty range among them), and the progressive schedule — one unit per
// range, in order.
func schedules(n int) map[string][]int {
	perUnit := make([]int, n+1)
	for i := range perUnit {
		perUnit[i] = i
	}
	return map[string][]int{
		"uneven":   {0, n / 5, n / 5, n/2 + 1, n},
		"per-unit": perUnit,
	}
}

func TestPhase2Matrix(t *testing.T) {
	rng := hashing.NewSplitMix64(21)
	m, _ := plantedMatrix(rng, 600, 90) // three colChunks, the last one short
	sig, err := mhSketch(m.Stream(), 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kmhSketch(m.Stream(), 32, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{K: 24, R: 3, L: 8, Seed: 5, Threshold: 0.5, Delta: 0.4}
	with := func(algo fold.Algo, l int) Params { q := p; q.Algo, q.L = algo, l; return q }
	hashCount, err := newHashCountMH(context.Background(), sig, p.cutoff(), 1)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []struct {
		name string
		k    *Kernel
	}{
		{"mh", mustFor(t, with(fold.MinHash, 0), fold.Sketch{MH: sig}, 2)},
		{"mh-hashcount", kernelOf(t, fold.MinHash, hashCount)},
		{"kmh", mustFor(t, with(fold.KMinHash, 0), fold.Sketch{KMH: sk}, 1)},
		{"mlsh-disjoint", mustFor(t, with(fold.MinLSH, 8), fold.Sketch{MH: sig}, 1)},
		{"mlsh-sampled", mustFor(t, with(fold.MinLSH, 11), fold.Sketch{MH: sig}, 1)}, // K < R·L
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			k := sc.k
			want, wantWork := fullRange(t, k)
			for _, workers := range []int{1, 2, 4, 16} { // 16: more workers than chunks
				t.Run(fmt.Sprintf("workers=%d/one-range", workers), func(t *testing.T) {
					got, work, err := k.Scan(context.Background(), nil, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameCandidates(t, got, work, want, wantWork)
				})
				for name, cuts := range schedules(k.Units()) {
					t.Run(fmt.Sprintf("workers=%d/%s", workers, name), func(t *testing.T) {
						got, work := dealt(t, k, cuts, workers)
						sameCandidates(t, got, work, want, wantWork)
					})
				}
			}
			t.Run("cancelled", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				for _, workers := range []int{1, 4} {
					if _, _, err := k.Scan(ctx, nil, workers, nil); !errors.Is(err, context.Canceled) {
						t.Errorf("Scan with %d workers under a cancelled context: %v", workers, err)
					}
				}
			})
			t.Run("range-check", func(t *testing.T) {
				for _, r := range [][2]int{{-1, 1}, {0, k.Units() + 1}, {2, 1}} {
					if _, _, err := k.Range(nil, r[0], r[1]); err == nil {
						t.Errorf("range [%d,%d) of %d units accepted", r[0], r[1], k.Units())
					}
				}
			})
			// The per-column access path: every column, from a kernel that
			// has run nothing yet (a fork) and from the one the cells above
			// have scanned and that has just answered another column.
			t.Run("column", func(t *testing.T) {
				fresh := &Kernel{Scheme: k.Scheme, r: k.r.fork()}
				for col := 0; col < sig.M; col++ {
					sameColumn(t, fresh, col, want)
					fresh = &Kernel{Scheme: k.Scheme, r: k.r.fork()}
					sameColumn(t, k, col, want)
				}
				for _, col := range []int{-1, sig.M} {
					if _, _, err := k.Column(nil, col); err == nil {
						t.Errorf("column %d of %d accepted", col, sig.M)
					}
				}
			})
		})
	}
	// The index build is cancellable where it is parallel: the MH rows'
	// sorts and the M-LSH bands'.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []Params{with(fold.MinHash, 0), with(fold.MinLSH, 8), with(fold.MinLSH, 11)} {
		for _, workers := range []int{1, 4} {
			if _, err := For(ctx, p, fold.Sketch{MH: sig}, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("algo %d L %d: For with %d workers under a cancelled context: %v", p.Algo, p.L, workers, err)
			}
		}
	}
}

// TestKernelsShareOneIndex: two kernels of one Index under different
// parameters, scanning and answering columns at the same time (run with
// -race), each emit what a kernel built on its own by For does.
func TestKernelsShareOneIndex(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	m, _ := plantedMatrix(rng, 400, 70)
	sig, err := mhSketch(m.Stream(), 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kmhSketch(m.Stream(), 32, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo fold.Algo
		sk   fold.Sketch
	}{
		{fold.MinHash, fold.Sketch{MH: sig}},
		{fold.KMinHash, fold.Sketch{KMH: sk}},
		{fold.MinLSH, fold.Sketch{MH: sig}},
	} {
		params := []Params{
			{Algo: tc.algo, K: 24, R: 3, L: 8, Seed: 5, Threshold: 0.5, Delta: 0.4},
			{Algo: tc.algo, K: 24, R: 2, L: 6, Seed: 5, Threshold: 0.8, Delta: 0.1},
		}
		// The kept index: the grouping, or the first layout's band runs,
		// which cannot serve the second layout; that M-LSH kernel gets an
		// index of its own.
		ix, err := IndexFor(context.Background(), params[0], tc.sk, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Its resident bytes are IndexBytes': 12 a cell, or a band and
		// column — an M-LSH index holds no band keys.
		if got, want := int64(len(ix.sorted))*4+int64(len(ix.runs))*8, IndexBytes(params[0], tc.sk); got != want {
			t.Errorf("algo %d: an index of %d bytes, IndexBytes says %d", tc.algo, got, want)
		}
		if oneLayout := tc.algo == fold.MinLSH; !ix.Serves(params[0]) || ix.Serves(params[1]) == oneLayout {
			t.Errorf("algo %d: Serves = %v, %v", tc.algo, ix.Serves(params[0]), ix.Serves(params[1]))
		}
		indexes := []*Index{ix, ix}
		if tc.algo == fold.MinLSH {
			if _, err := ix.Kernel(params[1]); err == nil {
				t.Error("an M-LSH index served another band layout")
			}
			if indexes[1], err = IndexFor(context.Background(), params[1], tc.sk, 1); err != nil {
				t.Fatal(err)
			}
		}
		type query struct {
			k       *Kernel
			scan    []pairs.Scored
			work    int64
			columns [][]pairs.Scored
			err     error
		}
		queries := make([]query, len(params))
		var wg sync.WaitGroup
		for i, p := range params {
			q := &queries[i]
			if q.k, err = indexes[i].Kernel(p); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				q.scan, q.work, q.err = q.k.Scan(context.Background(), nil, 2, nil)
				for col := 0; col < sig.M && q.err == nil; col++ {
					var c []pairs.Scored
					c, _, q.err = q.k.Column(nil, col)
					q.columns = append(q.columns, c)
				}
			}()
		}
		wg.Wait()
		for i, q := range queries {
			if q.err != nil {
				t.Fatal(q.err)
			}
			want, wantWork := fullRange(t, mustFor(t, params[i], tc.sk, 1))
			sameCandidates(t, q.scan, q.work, want, wantWork)
			for col, c := range q.columns {
				isColumnOf(t, c, col, want)
			}
		}
		other := Params{Algo: fold.MinHash, K: 24, Threshold: 0.5}
		if tc.algo == fold.MinHash {
			other.Algo = fold.KMinHash
		}
		if _, err := ix.Kernel(other); err == nil {
			t.Errorf("index of algo %d served algo %d", tc.algo, other.Algo)
		}
	}
}

// FuzzKernelColumn: over random small signature matrices and sketches,
// empty columns included, every scheme's Column(col) is its full scan
// filtered on col.
func FuzzKernelColumn(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(9), uint8(3), uint8(128))
	f.Add(uint64(2), uint8(1), uint8(2), uint8(0), uint8(255))
	f.Add(uint64(3), uint8(30), uint8(17), uint8(9), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, k, m, col, thr uint8) {
		next := testutil.SplitMix64(seed)
		kk, mm := int(k%24)+1, int(m%20)+2
		// A few distinct values, so runs and buckets are long; one column
		// in five is empty.
		sig := &minhash.Signatures{K: kk, M: mm, Vals: make([]uint64, kk*mm)}
		sk := &kminhash.Sketches{K: kk, Sigs: make([][]uint64, mm), ColSizes: make([]int, mm)}
		for c := 0; c < mm; c++ {
			empty := next()%5 == 0
			for l := 0; l < kk; l++ {
				sig.Vals[l*mm+c] = next() % 4
				if empty {
					sig.Vals[l*mm+c] = minhash.Empty
				}
			}
			if !empty {
				for v := uint64(0); v < 3*uint64(kk) && len(sk.Sigs[c]) < kk; v++ {
					if next()%3 == 0 {
						sk.Sigs[c] = append(sk.Sigs[c], v) // ascending, distinct
					}
				}
				sk.ColSizes[c] = len(sk.Sigs[c]) + int(next()%4)*btoi(len(sk.Sigs[c]) == kk)
			}
		}
		p := Params{K: kk, R: min(2, kk), L: 3, Seed: seed, Threshold: (float64(thr) + 1) / 256, Delta: 0.2}
		for _, tc := range []struct {
			algo fold.Algo
			sk   fold.Sketch
		}{
			{fold.MinHash, fold.Sketch{MH: sig}},
			{fold.KMinHash, fold.Sketch{KMH: sk}},
			{fold.MinLSH, fold.Sketch{MH: sig}},
		} {
			p.Algo = tc.algo
			kern := mustFor(t, p, tc.sk, 1)
			out, _, err := kern.Range(nil, 0, kern.Units())
			if err != nil {
				t.Fatal(err)
			}
			sameColumn(t, kern, int(col)%mm, out)
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestForValidation: a scheme without a range kernel, a sketch of the
// wrong kind (a dist candidate job before any state broadcast), and
// band parameters the sketch cannot serve are errors, not panics.
func TestForValidation(t *testing.T) {
	sig := &minhash.Signatures{K: 4, M: 2, Vals: make([]uint64, 8)}
	ok := Params{Algo: fold.MinLSH, K: 4, R: 2, L: 2, Threshold: 0.5, Delta: 0.2}
	for name, tc := range map[string]struct {
		p  Params
		sk fold.Sketch
	}{
		"bps has no kernel":   {Params{Algo: fold.BPS, Threshold: 0.5}, fold.Sketch{Sup: []int64{1}}},
		"mh without sketch":   {Params{Algo: fold.MinHash, Threshold: 0.5, Delta: 0.2}, fold.Sketch{}},
		"kmh without sketch":  {Params{Algo: fold.KMinHash, Threshold: 0.5, Delta: 0.2}, fold.Sketch{MH: sig}},
		"mlsh without sketch": {ok, fold.Sketch{}},
		"mlsh r > k":          {Params{Algo: fold.MinLSH, K: 4, R: 5, L: 2, Threshold: 0.5}, fold.Sketch{MH: sig}},
		"mlsh r = 0":          {Params{Algo: fold.MinLSH, K: 4, L: 2, Threshold: 0.5}, fold.Sketch{MH: sig}},
		"mh cutoff 0":         {Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}},
	} {
		if _, err := For(context.Background(), tc.p, tc.sk, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A nil context means Background, as Config.Context does.
	if _, err := For(nil, ok, fold.Sketch{MH: sig}, -1); err != nil {
		t.Errorf("valid M-LSH parameters rejected: %v", err)
	}
}

// TestParamsDefaults pins the one defaults-and-validation function both
// Config types call.
func TestParamsDefaults(t *testing.T) {
	p := Params{Algo: fold.MinLSH, Threshold: 0.5}
	if err := p.SetDefaults(); err != nil {
		t.Fatal(err)
	}
	if want := (Params{Algo: fold.MinLSH, K: 100, R: 5, L: 20, SampleBudget: 32, Threshold: 0.5, Delta: 0.2}); p != want {
		t.Errorf("defaults %+v, want %+v", p, want)
	}
	if q := (Params{Threshold: 0.5, K: 3}); q.SetDefaults() != nil || q.L != 1 {
		t.Errorf("L for K < R: %+v", q)
	}
	for name, bad := range map[string]Params{
		"threshold 0":  {},
		"threshold >1": {Threshold: 1.5},
		"K < 0":        {Threshold: 0.5, K: -1},
		"delta 1":      {Threshold: 0.5, Delta: 1},
		"R < 0":        {Threshold: 0.5, R: -1},
		"L < 0":        {Threshold: 0.5, L: -1},
		"mlsh K < R":   {Algo: fold.MinLSH, Threshold: 0.5, K: 3, R: 5},
		"budget < 0":   {Threshold: 0.5, SampleBudget: -1},
	} {
		if err := bad.SetDefaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkPhase2 is the committed before/after of the three kernels
// under the goroutine scheduler, index build included, on the wide
// fixtures: what the driver's candidates step costs per scheme and
// worker count.
func BenchmarkPhase2(b *testing.B) {
	sig := wideSignatures(b, 40)
	sk := wideSketches(b, 64)
	p := Params{K: 40, R: 5, L: 8, Seed: 7, Threshold: 0.5, Delta: 0.2}
	for _, sc := range []struct {
		name string
		algo fold.Algo
		sk   fold.Sketch
	}{
		{"mh", fold.MinHash, fold.Sketch{MH: sig}},
		{"kmh", fold.KMinHash, fold.Sketch{KMH: sk}},
		{"mlsh", fold.MinLSH, fold.Sketch{MH: sig}},
	} {
		p.Algo = sc.algo
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k, err := For(context.Background(), p, sc.sk, workers)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := k.Scan(context.Background(), nil, workers, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestTwoAgreementFloor: §6's table scans the MH kernel at Threshold
// 2/K with no Delta, and must get exactly the pairs agreeing in at
// least two rows for every K it can be asked: ceil((2/K)·K) is 2 in
// float64. Every K's kernel is checked for that floor, and the scan —
// with the Agreements the table's bound is read from — over K rows up
// to 256 and at 4095 and 4096 (an index build per K is the cost).
// Columns 0 and 3 agree everywhere; 2 agrees with 0 and 3 in rows 0 and
// 1; 1 agrees with the others in row 0 alone.
func TestTwoAgreementFloor(t *testing.T) {
	want := []pairs.Pair{{I: 0, J: 2}, {I: 0, J: 3}, {I: 2, J: 3}}
	for k := 2; k <= 4096; k++ {
		floor := Params{Algo: fold.MinHash, K: k, Threshold: 2 / float64(k)}
		bare := &Index{algo: fold.MinHash, sk: fold.Sketch{MH: &minhash.Signatures{K: k}}}
		if kern, err := bare.Kernel(floor); err != nil || kern.r.(*mhRanger).minAgree != 2 {
			t.Fatalf("k=%d: floor kernel %v", k, err)
		}
		if k > 256 && k < 4095 {
			continue
		}
		sig := &minhash.Signatures{K: k, M: 4, Vals: make([]uint64, 4*k)}
		for l := 0; l < k; l++ {
			row := sig.Vals[4*l : 4*l+4]
			row[0], row[1], row[2], row[3] = uint64(3*l), uint64(3*l+1), uint64(3*l+2), uint64(3*l)
			if l < 2 {
				row[2] = row[0]
			}
			if l == 0 {
				row[1] = row[0]
			}
		}
		ix, err := IndexFor(context.Background(), Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, agreements := ix.Agreements(), int64(k+2+2+3); got != agreements {
			t.Fatalf("k=%d: %d agreements, want %d", k, got, agreements)
		}
		kern, err := ix.Kernel(floor)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := kern.Scan(context.Background(), nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %v, want %v", k, got, want)
		}
		for i, p := range got {
			if p.Pair != want[i] {
				t.Fatalf("k=%d: %v, want %v", k, got, want)
			}
		}
	}
}
