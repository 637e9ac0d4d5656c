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

// TestPhase3Matrix is phase 3's one equivalence table, the sibling of
// TestFoldMatrix and TestPhase2Matrix: every way Verify can be made to
// count — each kernel, each memory strategy, the fallback between them —
// over every kind of source at every worker count returns Exact's pairs,
// order, Exact bits and Touches; the kernel a cell names is the one that
// ran; and the work counters that are functions of (data, candidates,
// budget, workers) alone — the packed kernel's of the first three, the
// spill schedule's of all four — do not move with the source.
func TestPhase3Matrix(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := hashing.NewSplitMix64(41)
	const rows, cols, threshold = 600, 60, 0.05
	m := randomMatrix(rng, rows, cols, 0.1)
	cand := allPairsCandidates(cols) // 1770 candidates: four shards at four workers
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
		{"window/memory", "window", &matrix.RangeSource{Src: m.Stream(), From: 150, To: 500}},
		{"window/arows", "window", &matrix.RangeSource{Src: file, From: 150, To: 500}},
	}
	words := int64(rows+63) / 64
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
	want := map[string]result{} // data key -> Exact's answer
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
