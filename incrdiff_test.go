package assocmine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// incrFixture generates a deterministic sparse row set and the matching
// in-memory Dataset (rows already sorted and duplicate-free, as the
// file formats deliver them).
func incrFixture(t *testing.T, rows, cols int, seed uint64) ([][]int32, *Dataset) {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	data := make([][]int32, rows)
	asInt := make([][]int, rows)
	for r := range data {
		for c := 0; c < cols; c++ {
			if rng.Intn(5) == 0 {
				data[r] = append(data[r], int32(c))
				asInt[r] = append(asInt[r], c)
			}
		}
	}
	d, err := NewDatasetFromRows(cols, asInt)
	if err != nil {
		t.Fatal(err)
	}
	return data, d
}

// appendChunked feeds rows into the ingest in fixed-size chunks,
// optionally snapshotting to disk and reloading halfway through.
func appendChunked(t *testing.T, in *Ingest, rows [][]int32, chunk, workers int, snapshot bool) *Ingest {
	t.Helper()
	mid := len(rows) / 2
	for off := 0; off < len(rows); off += chunk {
		endOff := off + chunk
		if endOff > len(rows) {
			endOff = len(rows)
		}
		if snapshot && off <= mid && mid < endOff && off > 0 {
			path := filepath.Join(t.TempDir(), "ingest.ain")
			if err := in.Save(path); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadIngest(path)
			if err != nil {
				t.Fatal(err)
			}
			in = restored
		}
		if err := in.AppendRows(rows[off:endOff], workers); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// TestIncrAppendMatchesBatchMH: appending a dataset's rows in chunks of
// 1, 3 and 7 — serial and parallel, with and without a snapshot
// round-trip mid-stream — finishes to the exact batch min-hash
// signatures, bit for bit.
func TestIncrAppendMatchesBatchMH(t *testing.T) {
	rows, d := incrFixture(t, 260, 40, 11)
	const k, seed = 16, 5
	want, err := ComputeSignatures(d, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 7} {
		for _, workers := range []int{1, 4} {
			for _, snapshot := range []bool{false, true} {
				t.Run(fmt.Sprintf("chunk=%d/workers=%d/snapshot=%v", chunk, workers, snapshot), func(t *testing.T) {
					defer testutil.CheckGoroutines(t)
					in, err := NewIngest(MinHash, 40, k, seed, 0)
					if err != nil {
						t.Fatal(err)
					}
					in = appendChunked(t, in, rows, chunk, workers, snapshot)
					got, err := in.Signatures()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.sig.Vals, want.sig.Vals) {
						t.Fatal("incremental signatures differ from batch")
					}
					if in.Rows() != int64(len(rows)) {
						t.Fatalf("Rows() = %d, want %d", in.Rows(), len(rows))
					}
					// IncrStats counts this process's work, so a restored
					// ingest starts its session counters fresh.
					if st := in.Stats(); !snapshot && st.RowsAppended != int64(len(rows)) {
						t.Fatalf("RowsAppended = %d, want %d", st.RowsAppended, len(rows))
					}
				})
			}
		}
	}
}

// TestIncrAppendMatchesBatchKMH is the bottom-k variant: sketch content
// always equals the batch compute; the order-dependent Updates counter
// additionally replays exactly for serial appends (snapshots store the
// heap arrays verbatim).
func TestIncrAppendMatchesBatchKMH(t *testing.T) {
	rows, d := incrFixture(t, 260, 40, 12)
	const k, seed = 8, 19
	want, err := ComputeSketches(d, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 7} {
		for _, workers := range []int{1, 4} {
			for _, snapshot := range []bool{false, true} {
				t.Run(fmt.Sprintf("chunk=%d/workers=%d/snapshot=%v", chunk, workers, snapshot), func(t *testing.T) {
					defer testutil.CheckGoroutines(t)
					in, err := NewIngest(KMinHash, 40, k, seed, 0)
					if err != nil {
						t.Fatal(err)
					}
					in = appendChunked(t, in, rows, chunk, workers, snapshot)
					got, err := in.Sketches()
					if err != nil {
						t.Fatal(err)
					}
					if got.sk.K != want.sk.K || !reflect.DeepEqual(got.sk.ColSizes, want.sk.ColSizes) {
						t.Fatal("incremental sketch shape differs from batch")
					}
					for c := range want.sk.Sigs {
						if !reflect.DeepEqual(got.sk.Sigs[c], want.sk.Sigs[c]) {
							t.Fatalf("column %d sketch differs from batch", c)
						}
					}
					if workers == 1 && got.sk.Updates != want.sk.Updates {
						t.Fatalf("serial replay Updates = %d, batch %d", got.sk.Updates, want.sk.Updates)
					}
				})
			}
		}
	}
}

// TestIncrCatchUpMatchesBatch: catching up from a file that grew in
// place — first a 60% prefix, then the full data — folds only the new
// rows (O(new), the resume contract) and finishes to the exact batch
// sketches, for both algorithms, both file formats, serial and
// parallel.
func TestIncrCatchUpMatchesBatch(t *testing.T) {
	rows, d := incrFixture(t, 300, 35, 21)
	prefixInt := make([][]int, 180)
	for r := range prefixInt {
		for _, c := range rows[r] {
			prefixInt[r] = append(prefixInt[r], int(c))
		}
	}
	prefix, err := NewDatasetFromRows(35, prefixInt)
	if err != nil {
		t.Fatal(err)
	}
	const k, seed = 12, 3
	wantMH, err := ComputeSignatures(d, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantKMH, err := ComputeSketches(d, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{MinHash, KMinHash} {
		for _, ext := range []string{".txt", ".arows"} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v%s/workers=%d", algo, ext, workers), func(t *testing.T) {
					defer testutil.CheckGoroutines(t)
					in, err := NewIngest(algo, 35, k, seed, 0)
					if err != nil {
						t.Fatal(err)
					}
					n, err := in.CatchUp(saveDataset(t, prefix, ext), workers)
					if err != nil {
						t.Fatal(err)
					}
					if n != 180 {
						t.Fatalf("prefix catch-up folded %d rows, want 180", n)
					}
					full := saveDataset(t, d, ext)
					n, err = in.CatchUp(full, workers)
					if err != nil {
						t.Fatal(err)
					}
					if n != 120 {
						t.Fatalf("growth catch-up folded %d rows, want 120", n)
					}
					// Caught up: another pass over the same file is a no-op.
					n, err = in.CatchUp(full, workers)
					if err != nil || n != 0 {
						t.Fatalf("repeat catch-up = (%d, %v), want (0, nil)", n, err)
					}
					if algo == MinHash {
						got, err := in.Signatures()
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.sig.Vals, wantMH.sig.Vals) {
							t.Fatal("caught-up signatures differ from batch")
						}
					} else {
						got, err := in.Sketches()
						if err != nil {
							t.Fatal(err)
						}
						for c := range wantKMH.sk.Sigs {
							if !reflect.DeepEqual(got.sk.Sigs[c], wantKMH.sk.Sigs[c]) {
								t.Fatalf("column %d sketch differs from batch", c)
							}
						}
						if !reflect.DeepEqual(got.sk.ColSizes, wantKMH.sk.ColSizes) {
							t.Fatal("caught-up column sizes differ from batch")
						}
					}
					// A shrunken source is corruption, not growth.
					if _, err := in.CatchUpDataset(prefix, workers); err == nil {
						t.Fatal("catch-up from a shrunken source accepted")
					}
				})
			}
		}
	}
}

// TestIncrWindowMode: a sliding-window ingest keeps only the trailing
// batches live — expired checkpoints drop out, and the merged live
// state equals a batch fold over exactly the suffix rows (same global
// row ids).
func TestIncrWindowMode(t *testing.T) {
	rows, _ := incrFixture(t, 240, 30, 31)
	const k, seed, batch = 10, 9, 60
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)
			in, err := NewIngest(MinHash, 30, k, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			col := NewCollector()
			in.SetRecorder(col)
			for off := 0; off < len(rows); off += batch {
				if err := in.AppendRows(rows[off:off+batch], workers); err != nil {
					t.Fatal(err)
				}
			}
			if in.Windows() != 2 {
				t.Fatalf("Windows() = %d, want 2", in.Windows())
			}
			if in.LiveFrom() != 120 || in.LiveRows() != 120 {
				t.Fatalf("live span = [%d, +%d), want [120, +120)", in.LiveFrom(), in.LiveRows())
			}
			st := in.Stats()
			if st.WindowsExpired != 2 {
				t.Fatalf("WindowsExpired = %d, want 2", st.WindowsExpired)
			}
			got, err := in.Signatures()
			if err != nil {
				t.Fatal(err)
			}
			if st = in.Stats(); st.StatesMerged != 1 {
				t.Fatalf("StatesMerged = %d, want 1", st.StatesMerged)
			}
			for _, c := range []struct {
				name string
				got  int64
			}{
				{CounterRowsAppended, st.RowsAppended},
				{CounterStatesMerged, st.StatesMerged},
				{CounterWindowsExpired, st.WindowsExpired},
			} {
				if col.Counter(c.name) != c.got {
					t.Errorf("collector %s = %d, Stats says %d", c.name, col.Counter(c.name), c.got)
				}
			}
			// Reference: a fresh serial fold over only the suffix rows,
			// with their global ids.
			suffix := &matrix.SliceSource{Cols: 30, Base: 120, Rows: rows[120:]}
			want, err := ComputeSignatures(WrapMatrix(mustCollect(t, suffix)), k, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.sig.Vals, want.sig.Vals) {
				t.Fatal("windowed signatures differ from a batch fold over the suffix")
			}
		})
	}
}

// mustCollect materialises a row source into a matrix for reference
// computations.
func mustCollect(t *testing.T, src matrix.RowSource) *matrix.Matrix {
	t.Helper()
	m, err := matrix.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIncrWindowQueryEndToEnd: mining the full dataset with
// Config.Window equals (a) brute force over the suffix re-based as its
// own dataset (exact semantics of the window) and (b) a query answered
// from the sliding-window ingest's merged signatures via
// SimilarPairsWithSignatures.
func TestIncrWindowQueryEndToEnd(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 600, Cols: 50, PairsPerRange: 3, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	const window = 200
	from := d.NumRows() - window
	// Re-base the suffix as a standalone dataset for the exact reference.
	srows := make([][]int32, 0, window)
	if err := (&matrix.RangeSource{Src: d.m.Stream(), From: from, To: d.m.NumRows()}).Scan(func(row int, cols []int32) error {
		srows = append(srows, append([]int32(nil), cols...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	suffix := make([][]int, window)
	for r, cols := range srows {
		for _, c := range cols {
			suffix[r] = append(suffix[r], int(c))
		}
	}
	sub, err := NewDatasetFromRows(d.NumCols(), suffix)
	if err != nil {
		t.Fatal(err)
	}
	exactWant, err := SimilarPairs(sub, Config{Algorithm: BruteForce, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exactGot, err := SimilarPairs(d, Config{Algorithm: BruteForce, Threshold: 0.5, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if len(exactGot.Pairs) != len(exactWant.Pairs) {
		t.Fatalf("windowed brute force found %d pairs, suffix dataset %d", len(exactGot.Pairs), len(exactWant.Pairs))
	}
	for i := range exactWant.Pairs {
		if exactGot.Pairs[i] != exactWant.Pairs[i] {
			t.Fatalf("pair %d: %+v windowed, %+v suffix", i, exactGot.Pairs[i], exactWant.Pairs[i])
		}
	}

	// The sketch path: windowed direct mining == query over the ingest's
	// merged window signatures.
	cfg := Config{Algorithm: MinHash, Threshold: 0.5, K: 40, Seed: 7, Window: window}
	direct, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIngest(MinHash, d.NumCols(), cfg.K, cfg.Seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < d.NumRows(); off += window / 2 {
		if err := in.AppendRows(srcRows(t, d, off, off+window/2), 1); err != nil {
			t.Fatal(err)
		}
	}
	if in.LiveRows() != window {
		t.Fatalf("LiveRows() = %d, want %d", in.LiveRows(), window)
	}
	sigs, err := in.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	viaSketch, err := SimilarPairsWithSignatures(d, sigs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaSketch.Pairs) != len(direct.Pairs) {
		t.Fatalf("query over ingest signatures found %d pairs, direct windowed run %d", len(viaSketch.Pairs), len(direct.Pairs))
	}
	for i := range direct.Pairs {
		if viaSketch.Pairs[i] != direct.Pairs[i] {
			t.Fatalf("pair %d: %+v via ingest, %+v direct", i, viaSketch.Pairs[i], direct.Pairs[i])
		}
	}
}

// TestIncrWindowProgressive: the band-by-band progressive M-LSH run
// honours Config.Window — its final pair set equals the one-shot
// windowed MinLSH run, for serial and parallel verification.
func TestIncrWindowProgressive(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 600, Cols: 50, PairsPerRange: 3, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	const window = 200
	base := Config{Algorithm: MinLSH, Threshold: 0.5, K: 60, R: 5, L: 12, Seed: 9, Window: window}
	want, err := SimilarPairs(d, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("windowed MinLSH reference found no pairs; fixture too sparse")
	}
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		defer testutil.CheckGoroutines(t)
		got, err := ProgressiveSimilarPairs(d, cfg, func(Progress) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		key := func(ps []Pair) map[[2]int]float64 {
			m := make(map[[2]int]float64, len(ps))
			for _, p := range ps {
				m[[2]int{p.I, p.J}] = p.Similarity
			}
			return m
		}
		gm, wm := key(got.Pairs), key(want.Pairs)
		if len(gm) != len(wm) {
			t.Fatalf("workers=%d: progressive found %d pairs, windowed MinLSH %d", workers, len(gm), len(wm))
		}
		for k, sim := range wm {
			if gm[k] != sim {
				t.Fatalf("workers=%d: pair %v sim %v progressive, %v windowed", workers, k, gm[k], sim)
			}
		}
		if got.Stats.RowsScanned%window != 0 {
			t.Fatalf("workers=%d: RowsScanned = %d, want a multiple of the %d-row window", workers, got.Stats.RowsScanned, window)
		}
	}
}

// srcRows extracts rows [from, to) of a dataset as int32 column lists.
func srcRows(t *testing.T, d *Dataset, from, to int) [][]int32 {
	t.Helper()
	if to > d.NumRows() {
		to = d.NumRows()
	}
	out := make([][]int32, 0, to-from)
	err := (&matrix.RangeSource{Src: d.m.Stream(), From: from, To: d.m.NumRows()}).Scan(func(row int, cols []int32) error {
		if row < to {
			out = append(out, append([]int32(nil), cols...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIncrSketchQueryMatchesDirect: a KMinHash query answered from a
// precomputed Sketches equals the direct SimilarPairs run, and the
// sketch round-trips through its compressed file format.
func TestIncrSketchQueryMatchesDirect(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 500, Cols: 60, PairsPerRange: 3, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: KMinHash, Threshold: 0.5, K: 30, Seed: 17}
	direct, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, cfg.K, cfg.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sketch.kmc")
	if err := sk.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketches(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Save(path) == nil {
		t.Fatal("re-saving a loaded sketch (unknown row count) accepted")
	}
	for _, s := range []*Sketches{sk, loaded} {
		res, err := SimilarPairsWithSketches(d, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(direct.Pairs) {
			t.Fatalf("sketch query found %d pairs, direct %d", len(res.Pairs), len(direct.Pairs))
		}
		for i := range direct.Pairs {
			if res.Pairs[i] != direct.Pairs[i] {
				t.Fatalf("pair %d: %+v via sketch, %+v direct", i, res.Pairs[i], direct.Pairs[i])
			}
		}
	}
}

// TestIncrValidation: the sliding-window and ingestion entry points
// reject what they must — whole-data schemes under a window, bad
// parameters, corrupt snapshots, appends after a poisoning failure.
func TestIncrValidation(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 60, Cols: 12, PairsPerRange: 1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimilarPairs(d, Config{Algorithm: HammingLSH, Threshold: 0.5, Window: 10}); err == nil {
		t.Error("HammingLSH accepted a sliding window")
	}
	if _, err := SimilarPairs(d, Config{Algorithm: Apriori, Threshold: 0.5, MinSupport: 0.1, Window: 10}); err == nil {
		t.Error("Apriori accepted a sliding window")
	}
	if _, err := SimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.5, Window: -1}); err == nil {
		t.Error("negative Window accepted")
	}
	// Window larger than the data is simply a full run.
	full, err := SimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.5, Seed: 3, Window: 10 * d.NumRows()})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Pairs) != len(full.Pairs) {
		t.Errorf("oversized window mined %d pairs, full run %d", len(wide.Pairs), len(full.Pairs))
	}

	if _, err := NewIngest(HammingLSH, 10, 4, 1, 0); err == nil {
		t.Error("HammingLSH ingest accepted")
	}
	if _, err := NewIngest(MinHash, 10, 0, 1, 0); err == nil {
		t.Error("k=0 ingest accepted")
	}
	if _, err := NewIngest(MinHash, 10, 4, 1, -1); err == nil {
		t.Error("negative window ingest accepted")
	}
	in, err := NewIngest(MinHash, 10, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AppendRows([][]int32{{0, 99}}, 1); err == nil {
		t.Error("out-of-range column accepted")
	}
	// Unsorted and duplicated entries canonicalise rather than corrupt.
	if err := in.AppendRows([][]int32{{3, 1, 3, 0}}, 1); err != nil {
		t.Fatal(err)
	}
	ref, err := NewIngest(MinHash, 10, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AppendRows([][]int32{{0, 1, 3}}, 1); err != nil {
		t.Fatal(err)
	}
	a, err := in.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.sig.Vals, b.sig.Vals) {
		t.Error("canonicalised row folded differently from its sorted form")
	}
	if _, err := in.Sketches(); err == nil {
		t.Error("MinHash ingest handed out Sketches")
	}
	kin, err := NewIngest(KMinHash, 10, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kin.Signatures(); err == nil {
		t.Error("KMinHash ingest handed out Signatures")
	}

	// Snapshot corruption.
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ain")
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIngest(path); err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ain")
	if err := os.WriteFile(bad, append([]byte("XXXX"), enc[4:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIngest(bad); err == nil {
		t.Error("bad magic accepted")
	}
	trunc := filepath.Join(dir, "trunc.ain")
	if err := os.WriteFile(trunc, enc[:len(enc)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIngest(trunc); err == nil {
		t.Error("truncated snapshot accepted")
	}

	// Column-count mismatch on catch-up.
	if _, err := in.CatchUpDataset(d, 1); err == nil {
		t.Error("catch-up with mismatched column count accepted")
	}
}

// goldenIngestRows is what the committed testdata/golden_*.ain1 files
// were built from, three batches of three rows (k = 4, seed = 42, 6
// columns).
var goldenIngestRows = [][]int32{
	{0, 1}, {1, 2, 3}, {0}, {}, {2, 3, 4}, {0, 1, 4}, {3}, {1, 2}, {0, 4},
}

// TestIncrGoldenBytes pins the AIN1 container (and the AMF1/KMF1 blobs
// inside it) byte for byte, cumulative and windowed, MH and K-MH: a
// committed snapshot loads, re-saves to the same bytes, answers like a
// fresh ingest of the same rows, and a fresh ingest saves to the same
// bytes. A format change is a visible diff of testdata/.
func TestIncrGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		name   string
		algo   Algorithm
		window int
	}{
		{"mh_cumulative", MinHash, 0},
		{"mh_window2", MinLSH, 2},
		{"kmh_cumulative", KMinHash, 0},
		{"kmh_window2", KMinHash, 2},
	} {
		golden := filepath.Join("testdata", "golden_"+g.name+".ain1")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIngest(golden)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fresh, err := NewIngest(g.algo, 6, 4, 42, g.window)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(goldenIngestRows); lo += 3 {
			if err := fresh.AppendRows(goldenIngestRows[lo:lo+3], 1); err != nil {
				t.Fatal(err)
			}
		}
		for label, in := range map[string]*Ingest{"loaded": loaded, "fresh": fresh} {
			path := filepath.Join(t.TempDir(), "resaved.ain1")
			if err := in.Save(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s ingest saves %d bytes that differ from the %d golden ones", g.name, label, len(got), len(want))
			}
		}
		if loaded.Algorithm() != g.algo || loaded.Rows() != 9 || loaded.LiveRows() != fresh.LiveRows() || loaded.Windows() != fresh.Windows() {
			t.Errorf("%s: loaded ingest is %v, %d rows, %d live in %d windows", g.name, loaded.Algorithm(), loaded.Rows(), loaded.LiveRows(), loaded.Windows())
		}
		if g.algo == KMinHash {
			a, errA := loaded.Sketches()
			b, errB := fresh.Sketches()
			if errA != nil || errB != nil || !reflect.DeepEqual(a.sk, b.sk) {
				t.Errorf("%s: loaded and fresh sketches differ (%v, %v)", g.name, errA, errB)
			}
		} else {
			a, errA := loaded.Signatures()
			b, errB := fresh.Signatures()
			if errA != nil || errB != nil || !reflect.DeepEqual(a.sig, b.sig) {
				t.Errorf("%s: loaded and fresh signatures differ (%v, %v)", g.name, errA, errB)
			}
		}
	}
}

// TestIncrWorkersZeroIsSerial: AppendRows and CatchUp promise the
// Config.Workers semantic, where 0 is serial. Under GOMAXPROCS(4) the
// K-MH state after workers = 0 must be the sequential one byte for byte
// (heap layout and Updates included); a dealt, merged fold leaves other
// bytes.
func TestIncrWorkersZeroIsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rows, d := incrFixture(t, 3000, 40, 77)
	saved := func(workers int, catchUp bool) []byte {
		in, err := NewIngest(KMinHash, 40, 8, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if catchUp {
			_, err = in.CatchUpDataset(d, workers)
		} else {
			err = in.AppendRows(rows, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "in.ain1")
		if err := in.Save(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := saved(1, false)
	if !reflect.DeepEqual(saved(0, false), serial) {
		t.Error("AppendRows(rows, 0) left another state than workers = 1")
	}
	if !reflect.DeepEqual(saved(0, true), serial) {
		t.Error("CatchUp(d, 0) left another state than a serial append")
	}
	if reflect.DeepEqual(saved(4, false), serial) {
		t.Error("a 4-worker fold left the sequential bytes; the fixture no longer tells the two apart")
	}
}

// TestFoldAlgoValues pins what lets the driver and Ingest hand their
// Algorithm to internal/fold by conversion: the schemes with a fold
// carry the same value in both enumerations, and no other scheme has a
// fold.
func TestFoldAlgoValues(t *testing.T) {
	for a, want := range map[Algorithm]fold.Algo{MinHash: fold.MinHash, KMinHash: fold.KMinHash, MinLSH: fold.MinLSH, BPS: fold.BPS} {
		if fold.Algo(a) != want {
			t.Errorf("%v is %d here and %d in internal/fold", a, int(a), int(want))
		}
	}
	for _, a := range []Algorithm{BruteForce, HammingLSH, Apriori, Algorithm(257), Algorithm(-1)} {
		if _, ok := fold.For(fold.Algo(a)); ok {
			t.Errorf("%v has a fold", a)
		}
	}
	if _, err := NewIngest(BPS, 10, 4, 1, 0); err == nil {
		t.Error("BPS ingest accepted")
	}
}
