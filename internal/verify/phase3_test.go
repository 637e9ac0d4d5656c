package verify

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// wantPackedWords is the PackedWords the packed kernel must report for
// cand over the rows src delivers: the words of every candidate whose
// columns both hold at least T ones, and nothing for the rest.
func wantPackedWords(t *testing.T, src matrix.RowSource, cand []pairs.Scored) int64 {
	t.Helper()
	ones := make([]int, src.NumCols())
	if err := src.Scan(func(_ int, cols []int32) error {
		for _, c := range cols {
			ones[c]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	words := (src.NumRows() + 63) / 64
	var n int64
	for _, p := range cand {
		if min(ones[p.I], ones[p.J]) >= listBelow(words) {
			n += int64(words)
		}
	}
	return n
}

// TestPhase3Matrix is phase 3's one equivalence table, the sibling of
// TestFoldMatrix and TestPhase2Matrix: every way Verify can be made to
// count — each kernel, each memory strategy, the fallback between them —
// over every kind of source at every worker count returns Exact's pairs,
// order, Exact bits and Touches; the kernel a cell names is the one that
// ran; and the work counters that are functions of (data, candidates,
// budget, workers) alone — the packed kernel's PackedBatches and
// PackedWords of the first three, the spill schedule's of all four — do
// not move with the source. Two data sets: a 10 % matrix whose columns
// are all bitmaps, and a mixed one (aroundT) whose empty, just-under-T,
// at-T and dense columns make every cell count pairs by merge, by bit
// probe and by AND popcount; PackedWords is exactly the words of the
// pairs whose columns both reach T.
func TestPhase3Matrix(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := hashing.NewSplitMix64(41)
	const cols, threshold = 60, 0.05
	cand := allPairsCandidates(cols) // 1770 candidates: four shards at four workers
	for _, d := range []struct {
		name     string
		m        *matrix.Matrix
		from, to int // the window
	}{
		{"dense", randomMatrix(rng, 600, cols, 0.1), 150, 500},
		{"mixed", aroundT(rng, 4096, cols), 1000, 3000},
	} {
		t.Run(d.name, func(t *testing.T) { phase3Cells(t, d.m, cand, threshold, d.from, d.to) })
	}
}

func phase3Cells(t *testing.T, m *matrix.Matrix, cand []pairs.Scored, threshold float64, from, to int) {
	path := filepath.Join(t.TempDir(), "m.arows")
	if err := matrix.SaveRowBinary(path, m.Stream()); err != nil {
		t.Fatal(err)
	}
	file, err := matrix.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}

	// Sources that deliver the same rows share a data key and must
	// agree on the work counters too.
	sources := []struct {
		name, data string
		src        matrix.RowSource
	}{
		{"memory", "full", m.Stream()}, // column lists + concurrent scans
		{"stream", "full", streamOnly{m.Stream()}},
		{"arows", "full", file},
		{"window/memory", "window", &matrix.RangeSource{Src: m.Stream(), From: from, To: to}},
		{"window/arows", "window", &matrix.RangeSource{Src: file, From: from, To: to}},
	}
	words := int64(m.NumRows()+63) / 64
	dir := t.TempDir()
	kernels := []struct {
		name           string
		kernel         Kernel
		budget         int64
		packed, spills bool
	}{
		{"auto", KernelAuto, 0, true, false},
		{"auto/budget-below-arena", KernelAuto, 4 << 10, false, true},
		{"scalar-dense", KernelScalar, 0, false, false},
		{"scalar-spill", KernelScalar, 4 << 10, false, true},
		{"packed-one-batch", KernelPacked, 0, true, false},
		{"packed-batched", KernelPacked, 7 * words * 8, true, false},
		{"packed-falls-to-spill", KernelPacked, 2*words*8 - 1, false, true},
	}

	type result struct {
		out []pairs.Scored
		st  Stats
	}
	want := map[string]result{}       // data key -> Exact's answer
	packedWords := map[string]int64{} // data key -> the packed kernel's words
	for _, s := range sources {
		out, st, err := Exact(s.src, cand, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 || len(out) == len(cand) {
			t.Fatalf("%s: %d of %d candidates survive; fixture is vacuous", s.name, len(out), len(cand))
		}
		if prev, ok := want[s.data]; ok && !reflect.DeepEqual(prev, result{out, st}) {
			t.Fatalf("%s: Exact differs between sources of the same rows", s.name)
		}
		want[s.data] = result{out, st}
		packedWords[s.data] = wantPackedWords(t, s.src, cand)
	}

	for _, k := range kernels {
		// The first Stats seen for the rows — and, for the spill schedule,
		// which is cut per worker, the worker count — every later cell
		// must repeat.
		peers := map[string]Stats{}
		for _, workers := range []int{1, 2, 4, -1} {
			for _, s := range sources {
				name := fmt.Sprintf("%s/%s/workers=%d", k.name, s.name, workers)
				got, st, err := Verify(s.src, cand, Params{
					Threshold: threshold, Kernel: k.kernel, Workers: workers,
					Budget: Budget{Bytes: k.budget, Dir: dir},
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w := want[s.data]
				if !reflect.DeepEqual(got, w.out) {
					t.Fatalf("%s: output differs from Exact", name)
				}
				if st.In != w.st.In || st.Out != w.st.Out || st.Touches != w.st.Touches {
					t.Fatalf("%s: stats %+v, want In/Out/Touches of %+v", name, st, w.st)
				}
				if (st.PackedBatches > 0) != k.packed || (st.PackedWords > 0) != k.packed {
					t.Errorf("%s: %d packed batches, %d words; want packed = %v", name, st.PackedBatches, st.PackedWords, k.packed)
				}
				if k.packed && st.PackedWords != packedWords[s.data] {
					t.Errorf("%s: %d packed words, want %d", name, st.PackedWords, packedWords[s.data])
				}
				if (k.name == "packed-batched") != (st.PackedBatches > 1) {
					t.Errorf("%s: %d packed batches", name, st.PackedBatches)
				}
				if (st.SpillRuns > 0) != k.spills || (st.SpillBytes > 0) != k.spills {
					t.Errorf("%s: %d spill runs, %d bytes; want spills = %v", name, st.SpillRuns, st.SpillBytes, k.spills)
				}
				st.Shards = 0 // delivery detail: one reader's broadcast or none
				key := s.data
				if k.spills {
					key = fmt.Sprint(key, "/", workers)
				}
				if first, ok := peers[key]; !ok {
					peers[key] = st
				} else if st != first {
					t.Errorf("%s: stats %+v, want the %+v of the first cell over these rows", name, st, first)
				}
			}
		}
		if n := countSpillFiles(t, dir); n != 0 {
			t.Fatalf("%s: %d spill files remain", k.name, n)
		}
	}
}
