package candidate

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/gen"
	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// The wide fixtures: 20k columns of Zipf-popular market rows. The head
// columns are dense (long runs), the tail has a handful of entries per
// column (runs of two or three) and a few thousand columns no row sets
// (minhash.Empty in every signature row) — hundreds of colChunk chunks,
// where the 60-column fixtures of the other tests have two.
const wideCols = 20_000

func wideSignatures(t testing.TB, k int) *minhash.Signatures {
	t.Helper()
	sig, err := minhash.Compute(&gen.ZipfSource{Kind: "market", Rows: 6000, Cols: wideCols, Seed: 3}, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func wideSketches(t testing.TB, k int) *kminhash.Sketches {
	t.Helper()
	sk, err := kminhash.Compute(&gen.ZipfSource{Kind: "market", Rows: 6000, Cols: wideCols, Seed: 3}, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// unevenCuts splits [0, m) at boundaries that are not multiples of
// colChunk, with an empty and a one-column range among them.
func unevenCuts(m int) []int {
	cuts := []int{0, 1, 1, 45}
	for at, step := 45, 7; at < m; step = step*3 + 1 {
		at = min(at+step, m)
		cuts = append(cuts, at)
	}
	return cuts
}

// wideSchedulers is TestPhase2Matrix's assertion at the width where a
// scan has hundreds of chunks: 4 workers and uneven ranges emit what
// the serial full range does, pair for pair and increment for
// increment.
func wideSchedulers(t *testing.T, k *Kernel) ([]pairs.Scored, int64) {
	t.Helper()
	want, wantWork := fullRange(t, k)
	par, parWork, err := k.Scan(context.Background(), nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCandidates(t, k, par, parWork, want, wantWork)
	chunked, chunkedWork := dealt(t, k, unevenCuts(k.Units()), 1)
	sameCandidates(t, k, chunked, chunkedWork, want, wantWork)
	return want, wantWork
}

// TestRowSortWide pins the radix-grouped Row-Sort on a wide sparse
// matrix: the candidate set equals the brute-force oracle's, the
// increment count equals Σ r·(r−1) over the runs of non-Empty values
// counted independently with a map, and the serial scan, a 4-worker
// scan and a kernel driven in uneven chunks emit the same pairs in the
// same order.
func TestRowSortWide(t *testing.T) {
	const cutoff = 0.5
	sig := wideSignatures(t, 4)
	got, st, err := RowSortMH(sig, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	k := mustFor(t, Params{Algo: fold.MinHash, Threshold: cutoff}, fold.Sketch{MH: sig}, 1)
	full, fullWork := wideSchedulers(t, k)
	sameCandidates(t, k, got, st.Increments, full, fullWork)

	var wantInc int64
	emptyCols := 0
	for l := 0; l < sig.K; l++ {
		runs := make(map[uint64]int64)
		for _, v := range sig.Vals[l*sig.M : (l+1)*sig.M] {
			if v != minhash.Empty {
				runs[v]++
			} else if l == 0 {
				emptyCols++
			}
		}
		for _, r := range runs {
			wantInc += r * (r - 1)
		}
	}
	if emptyCols < wideCols/20 {
		t.Fatalf("fixture has only %d empty columns", emptyCols)
	}
	if st.Increments != wantInc {
		t.Errorf("increments %d, want Σ r(r-1) = %d", st.Increments, wantInc)
	}

	if testing.Short() {
		t.Skip("brute-force oracle over 2·10⁸ pairs skipped in -short")
	}
	want, _, err := BruteForceMH(sig, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 1000 {
		t.Fatalf("fixture has only %d candidates", len(want))
	}
	gotSet, wantSet := pairSetOf(got), pairSetOf(want)
	if gotSet.Len() != len(got) {
		t.Errorf("Row-Sort emitted %d pairs, %d distinct", len(got), gotSet.Len())
	}
	if gotSet.Len() != wantSet.Len() {
		t.Errorf("Row-Sort found %d pairs, brute force %d", gotSet.Len(), wantSet.Len())
	}
	for _, p := range want {
		if !gotSet.Contains(p.I, p.J) {
			t.Fatalf("Row-Sort missed (%d,%d), estimate %v", p.I, p.J, p.Estimate)
		}
	}
}

// TestHashCountWide is the emission-order identity for the two
// Hash-Count generators on the wide fixtures: serial, 4 workers and
// uneven ranges agree pair for pair, and Hash-Count over MH signatures
// finds Row-Sort's set with half its increments.
func TestHashCountWide(t *testing.T) {
	const cutoff = 0.5
	sig := wideSignatures(t, 6)
	mh, mhSt, err := HashCountMH(sig, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := newMHRanger(context.Background(), sig, cutoff, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	hcKernel := kernelOf(t, fold.MinHash, hc)
	want, wantWork := wideSchedulers(t, hcKernel)
	sameCandidates(t, hcKernel, mh, mhSt.Increments, want, wantWork)
	rs, rsSt, err := RowSortMH(sig, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if 2*mhSt.Increments != rsSt.Increments {
		t.Errorf("Hash-Count made %d increments, Row-Sort %d: want exactly half", mhSt.Increments, rsSt.Increments)
	}
	pairs.SortScored(mh)
	pairs.SortScored(rs)
	if !reflect.DeepEqual(mh, rs) {
		t.Errorf("Hash-Count found %d pairs, Row-Sort %d (or estimates differ)", len(mh), len(rs))
	}

	sk := wideSketches(t, 16)
	opt := KMHOptions{BiasedCutoff: 0.25, UnbiasedCutoff: 0.5}
	kmh, kmhSt, err := HashCountKMH(sk, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(kmh) < 1000 {
		t.Fatalf("fixture has only %d K-MH candidates", len(kmh))
	}
	kmhKernel := mustFor(t, Params{Algo: fold.KMinHash, Threshold: cutoff}, fold.Sketch{KMH: sk}, 1)
	want, wantWork = wideSchedulers(t, kmhKernel)
	sameCandidates(t, kmhKernel, kmh, kmhSt.Increments, want, wantWork)
	// The independent count: Σ over shared sketch values of C(r, 2).
	holders := make(map[uint64]int64)
	for _, sg := range sk.Sigs {
		for _, v := range sg {
			holders[v]++
		}
	}
	var wantInc int64
	for _, r := range holders {
		wantInc += r * (r - 1) / 2
	}
	if kmhSt.Increments != wantInc {
		t.Errorf("K-MH increments %d, want Σ C(r,2) = %d", kmhSt.Increments, wantInc)
	}
}

// TestParallelScratchIsPerWorker guards against per-chunk scratch in
// the parallel count paths: a counter array allocated for every
// 32-column chunk costs m²/8 bytes (50 MB here, 125 GB at a million
// columns). What a 4-worker run may allocate is the index plus one
// counter array and output buffer per worker, all linear in m.
func TestParallelScratchIsPerWorker(t *testing.T) {
	const k, workers = 4, 4
	sig := wideSignatures(t, k)
	sk := wideSketches(t, k)
	ctx := context.Background()
	with := func(algo fold.Algo) Params { return Params{Algo: algo, K: k, R: 2, L: 2, Threshold: 0.5} }
	builds := map[string]func() (*Kernel, error){
		"RowSortMH": func() (*Kernel, error) { return For(ctx, with(fold.MinHash), fold.Sketch{MH: sig}, workers) },
		"HashCountMH": func() (*Kernel, error) {
			r, err := newMHRanger(ctx, sig, 0.5, true, workers)
			if err != nil {
				return nil, err
			}
			return kernelOf(t, fold.MinHash, r), nil
		},
		"HashCountKMH": func() (*Kernel, error) { return For(ctx, with(fold.KMinHash), fold.Sketch{KMH: sk}, workers) },
		"Banding":      func() (*Kernel, error) { return For(ctx, with(fold.MinLSH), fold.Sketch{MH: sig}, workers) },
	}
	// 64 bytes per (column, signature row or worker): sort keys and
	// scratch (24), the index (12), counters and output.
	const limit = 64 * wideCols * (k + workers)
	for name, build := range builds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		k, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Scan(ctx, nil, workers, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s with %d workers allocated %d bytes for %d columns, limit %d: scratch is not per worker", name, workers, got, wideCols, limit)
		}
	}
}
