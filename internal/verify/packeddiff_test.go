package verify

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/measures"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
	"assocmine/internal/testutil"
)

// randomCandidates draws count pairs (duplicates allowed — the scalar
// pass accepts them, so the packed pass must too) over cols columns.
func randomCandidates(rng *hashing.SplitMix64, cols, count int) []pairs.Scored {
	cand := make([]pairs.Scored, 0, count)
	for len(cand) < count {
		i := int32(rng.Intn(cols))
		j := int32(rng.Intn(cols))
		if i == j {
			continue
		}
		cand = append(cand, pairs.Scored{Pair: pairs.Make(i, j), Estimate: rng.Float64()})
	}
	return cand
}

// comparePacked runs ExactPacked under opt and requires its output and
// shared Stats to match the scalar reference bit for bit.
func comparePacked(t *testing.T, src matrix.RowSource, cand []pairs.Scored, threshold float64, opt PackedOptions, wantOut []pairs.Scored, wantStats Stats) Stats {
	t.Helper()
	got, st, err := ExactPacked(src, cand, threshold, opt)
	if err != nil {
		t.Fatalf("ExactPacked: %v", err)
	}
	if !reflect.DeepEqual(got, wantOut) {
		t.Fatalf("packed output differs from scalar:\npacked %v\nscalar %v", got, wantOut)
	}
	if st.In != wantStats.In || st.Out != wantStats.Out || st.Touches != wantStats.Touches {
		t.Fatalf("packed Stats differ: packed {In:%d Out:%d Touches:%d} scalar {In:%d Out:%d Touches:%d}",
			st.In, st.Out, st.Touches, wantStats.In, wantStats.Out, wantStats.Touches)
	}
	return st
}

// TestPackedMatchesScalar: ExactPacked must be bit-identical to Exact —
// output, order, Exact fields, Touches — across densities, thresholds,
// source capabilities (column lists, concurrent scans, stream-only
// fan-out) and worker counts.
func TestPackedMatchesScalar(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	for _, tc := range []struct {
		rows, cols int
		density    float64
		candidates int
		threshold  float64
	}{
		{300, 40, 0.1, 200, 0.3},
		{257, 25, 0.25, 100, 0},
		{64, 10, 0.5, 45, 0.6},
		{1, 8, 0.9, 20, 0.5},
		{100, 30, 0.02, 60, 0.1},
	} {
		m := randomMatrix(rng, tc.rows, tc.cols, tc.density)
		cand := randomCandidates(rng, tc.cols, tc.candidates)
		want, wantStats, err := Exact(m.Stream(), cand, tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opt := PackedOptions{Workers: workers}
			// m.Stream() is a ColumnLister: packed straight from the
			// column lists. streamOnly hides every capability, forcing
			// the single-reader scan, which broadcasts no shards at any
			// worker count.
			st := comparePacked(t, m.Stream(), cand, tc.threshold, opt, want, wantStats)
			if st.PackedBatches != 1 {
				t.Errorf("%dx%d: unbudgeted pass used %d batches, want 1", tc.rows, tc.cols, st.PackedBatches)
			}
			if st.PackedWords == 0 {
				t.Errorf("%dx%d: PackedWords not reported", tc.rows, tc.cols)
			}
			st = comparePacked(t, streamOnly{m.Stream()}, cand, tc.threshold, opt, want, wantStats)
			if st.Shards != 0 {
				t.Errorf("%dx%d workers=%d: stream-only packing reported %d shards", tc.rows, tc.cols, workers, st.Shards)
			}
		}
	}
}

// TestPackedMatchesBudgetedAndParallel: the packed pass must agree
// with the other scalar entry points too, and Verify, which packs
// exactly when the candidate columns fit the budget as bitmaps, with
// every budget.
func TestPackedMatchesBudgetedAndParallel(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	m := randomMatrix(rng, 400, 30, 0.15)
	cand := randomCandidates(rng, 30, 150)
	const threshold = 0.2

	want, wantStats, err := Exact(m.Stream(), cand, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if par, pst, err := ExactBudgeted(m.Stream(), cand, threshold, Budget{}, 4, nil); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(par, want) || pst.Touches != wantStats.Touches {
		t.Fatal("the unbudgeted ExactBudgeted disagrees with Exact; fixture broken")
	}

	distinct := map[int32]bool{}
	for _, p := range cand {
		distinct[p.I], distinct[p.J] = true, true
	}
	arena := int64(len(distinct)) * ((400 + 63) / 64) * 8
	for _, workers := range []int{1, 4} {
		comparePacked(t, m.Stream(), cand, threshold, PackedOptions{Workers: workers}, want, wantStats)
	}
	for _, budget := range []int64{0, arena, arena - 1, denseCounterBytes * int64(len(cand)), minSpillEntries * spillEntryBytes} {
		batches := int64(0)
		if budget == 0 || budget >= arena {
			batches = 1
		}
		for _, workers := range []int{1, 4} {
			for _, src := range []matrix.RowSource{m.Stream(), streamOnly{m.Stream()}} {
				got, st, err := Verify(src, cand, Params{Threshold: threshold, Budget: Budget{Bytes: budget, Dir: t.TempDir()}, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || st.Touches != wantStats.Touches {
					t.Fatalf("budget %d, %d workers, %T: Verify disagrees with Exact", budget, workers, src)
				}
				if st.PackedBatches != batches {
					t.Errorf("budget %d (arena %d): %d packed batches, want %d", budget, arena, st.PackedBatches, batches)
				}
				if spills := batches == 0 && budget > 0 && budget < denseCounterBytes*int64(len(cand)); (st.SpillRuns > 0) != spills {
					t.Errorf("budget %d: %d spill runs, want spills = %v", budget, st.SpillRuns, spills)
				}
			}
		}
	}
}

// TestPackedEdgeCases: empty candidate lists, zero-row sources and
// invalid inputs behave exactly like the scalar pass.
func TestPackedEdgeCases(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}, {1}}))
	if _, _, err := ExactPacked(m.Stream(), nil, -0.1, PackedOptions{}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, _, err := ExactPacked(m.Stream(), []pairs.Scored{{Pair: pairs.Pair{I: 0, J: 5}}}, 0.5, PackedOptions{}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
	if _, _, err := ExactPacked(m.Stream(), []pairs.Scored{{Pair: pairs.Pair{I: 1, J: 1}}}, 0.5, PackedOptions{}); err == nil {
		t.Error("self pair accepted")
	}
	out, st, err := ExactPacked(m.Stream(), nil, 0.5, PackedOptions{})
	if err != nil || len(out) != 0 || st.In != 0 {
		t.Errorf("empty candidates: out=%v st=%+v err=%v", out, st, err)
	}

	empty := &matrix.SliceSource{Cols: 4}
	cand := []pairs.Scored{{Pair: pairs.Make(0, 1)}, {Pair: pairs.Make(2, 3)}}
	want, wantStats, err := Exact(empty, cand, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ExactPacked(empty, cand, 0.5, PackedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || st.In != wantStats.In || st.Out != wantStats.Out {
		t.Errorf("zero-row source: packed (%v,%+v) scalar (%v,%+v)", got, st, want, wantStats)
	}
}

// TestPackedDerivedUnionEdges: every kernel admits by a measure of the
// pair's contingency counts, the union derived as |C_I| + |C_J| −
// |C_I ∩ C_J|, so the edges are a pair with an empty column (union =
// the other column, similarity 0), two empty columns (union 0, never
// emitted), two identical columns (union = intersection, similarity 1),
// disjoint columns (intersection 0) and, for the confidence of I => J,
// an empty antecedent (|C_I| = 0 under a non-empty union, never
// emitted). Threshold 0 keeps every pair with a non-empty union, so the
// 0 scores are compared too. Each measure's reference — Exact for
// similarity, confidenceOracle for §6's rules — must come out bit for
// bit, order included, of the scalar, packed and spilling kernels at 1
// and 4 workers, over column lists and over a stream-only source.
func TestPackedDerivedUnionEdges(t *testing.T) {
	const n = 130
	full := make([]int32, 0, n) // spans three words, the last partial
	for r := int32(0); r < n; r += 2 {
		full = append(full, r)
	}
	odd := []int32{1, 63, 65, 129}
	cols := [][]int32{full, {}, full, {}, odd}
	edges := []pairs.Scored{
		{Pair: pairs.Make(0, 1)},       // non-empty with empty: confidence 0
		{Pair: pairs.Make(1, 3)},       // both empty
		{Pair: pairs.Make(0, 2)},       // identical
		{Pair: pairs.Make(0, 4)},       // disjoint
		{Pair: pairs.Make(1, 4)},       // empty with non-empty: an empty antecedent
		{Pair: pairs.Pair{I: 2, J: 0}}, // identical, the other way round
	}
	for _, threshold := range []float64{0, 0.5, 1} {
		m := testutil.Must(matrix.New(n, cols))
		want, wantStats, err := Exact(m.Stream(), edges, threshold)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []matrix.RowSource{m.Stream(), streamOnly{m.Stream()}} {
			comparePacked(t, src, edges, threshold, PackedOptions{}, want, wantStats)
		}
		if threshold == 1 && (len(want) != 2 || want[0].Pair != pairs.Make(0, 2) || want[0].Exact != 1) {
			t.Fatalf("at threshold 1 only the identical pairs should survive, got %v", want)
		}
	}

	// The kernel matrix, over enough directed candidates to shard four
	// ways and to spill the smallest table.
	rng := hashing.NewSplitMix64(11)
	for len(cols) < 24 {
		var c []int32
		for r := int32(0); r < n; r++ {
			if rng.Float64() < 0.15 {
				c = append(c, r)
			}
		}
		cols = append(cols, c)
	}
	m := testutil.Must(matrix.New(n, cols))
	cand := slices.Clone(edges)
	for i := int32(5); i < int32(len(cols)); i++ {
		for j := int32(5); j < int32(len(cols)); j++ {
			if i != j {
				cand = append(cand, pairs.Scored{Pair: pairs.Pair{I: i, J: j}, Estimate: rng.Float64()})
			}
		}
	}
	kernels := []struct {
		name   string
		run    func(matrix.RowSource, Params) ([]pairs.Scored, Stats, error)
		budget int64
	}{
		{"scalar", func(src matrix.RowSource, p Params) ([]pairs.Scored, Stats, error) {
			return count(src, cand, p, spillFanIn)
		}, 0},
		{"packed", func(src matrix.RowSource, p Params) ([]pairs.Scored, Stats, error) { return packed(src, cand, p) }, 0},
		{"spill", func(src matrix.RowSource, p Params) ([]pairs.Scored, Stats, error) {
			return count(src, cand, p, spillFanIn)
		},
			minSpillEntries * spillEntryBytes},
	}
	for _, threshold := range []float64{0, 0.5, 1} {
		similar, _, err := Exact(m.Stream(), cand, threshold)
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range []struct {
			name    string
			measure func(measures.Counts) float64
			want    []pairs.Scored
		}{
			{"similarity", nil, similar},
			{"confidence", rules.Confidence, confidenceOracle(cols, cand, threshold)},
		} {
			for _, p := range ms.want {
				if len(cols[p.I]) == 0 && (ms.name == "confidence" || len(cols[p.J]) == 0) {
					t.Fatalf("%s at %v: emitted %v", ms.name, threshold, p)
				}
			}
			for _, k := range kernels {
				for _, workers := range []int{1, 4} {
					for _, src := range []matrix.RowSource{m.Stream(), streamOnly{m.Stream()}} {
						got, st, err := k.run(src, Params{
							Threshold: threshold, Measure: ms.measure,
							Budget: Budget{Bytes: k.budget, Dir: t.TempDir()}, Workers: workers,
						})
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, ms.want) {
							i := 0
							for i < min(len(got), len(ms.want)) && got[i] == ms.want[i] {
								i++
							}
							t.Fatalf("%s at %v, %s kernel, %d workers, %T: %d pairs, want %d; first difference at %d",
								ms.name, threshold, k.name, workers, src, len(got), len(ms.want), i)
						}
						if k.budget > 0 && st.SpillRuns == 0 {
							t.Fatalf("%s kernel at %d workers did not spill", k.name, workers)
						}
					}
				}
			}
		}
	}
}

// confidenceOracle is the confidence of each rule I => J counted
// directly from the columns, |C_I ∩ C_J| / |C_I|, for the candidates
// whose antecedent is non-empty and whose confidence reaches threshold,
// in candidate order.
func confidenceOracle(cols [][]int32, cand []pairs.Scored, threshold float64) []pairs.Scored {
	var out []pairs.Scored
	for _, p := range cand {
		from, to := cols[p.I], cols[p.J]
		if len(from) == 0 {
			continue
		}
		inter := 0
		for _, r := range from {
			if _, ok := slices.BinarySearch(to, r); ok {
				inter++
			}
		}
		if conf := float64(inter) / float64(len(from)); conf >= threshold {
			p.Exact = conf
			out = append(out, p)
		}
	}
	return out
}

// TestPackedCancellation: a cancelled context aborts the packed pass
// with context.Canceled, before the columns are packed and between pair
// chunks.
func TestPackedCancellation(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m := randomMatrix(rng, 200, 20, 0.2)
	cand := randomCandidates(rng, 20, 600)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := packed(m.Stream(), cand, Params{Threshold: 0.5, Context: ctx}); err != context.Canceled {
		t.Errorf("pre-cancelled context: err=%v, want context.Canceled", err)
	}

	// Cancel from the first progress tick: the pair sweep checks the
	// context every packedTickChunk pairs and must abort.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	tick := func(done, total int64) {
		if done < total {
			cancel2()
		}
	}
	if _, _, err := packed(m.Stream(), cand, Params{Threshold: 0.5, Context: ctx2, Tick: tick}); err != context.Canceled {
		t.Errorf("mid-sweep cancel: err=%v, want context.Canceled", err)
	}
}

// TestPackedProgressMonotonic: the packed pass's ticks report candidate
// pairs, never exceed the total, and finish exactly at (total, total).
func TestPackedProgressMonotonic(t *testing.T) {
	rng := hashing.NewSplitMix64(13)
	m := randomMatrix(rng, 150, 20, 0.2)
	cand := randomCandidates(rng, 20, 700)
	var last, calls int64
	tick := func(done, total int64) {
		calls++
		if total != int64(len(cand)) {
			t.Fatalf("tick total %d, want %d", total, len(cand))
		}
		if done > total {
			t.Fatalf("tick done %d exceeds total %d", done, total)
		}
		if done > last {
			last = done
		}
	}
	if _, _, err := packed(m.Stream(), cand, Params{Threshold: 0.3, Tick: tick}); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last != int64(len(cand)) {
		t.Errorf("progress ended at %d/%d after %d ticks", last, len(cand), calls)
	}
}

// TestAutoPackHeuristic: Verify's kernel choice depends only on the
// workload's shape, never on the source, and refuses tiny candidate
// lists and over-budget arenas.
func TestAutoPackHeuristic(t *testing.T) {
	big := make([]pairs.Scored, 100)
	for i := range big {
		big[i] = pairs.Scored{Pair: pairs.Make(int32(i%10), int32(10+i%13))}
	}
	if !AutoPack(1000, 30, big, 0) {
		t.Error("unbudgeted mid-size workload should pack")
	}
	if AutoPack(1000, 30, big[:minPackedCandidates-1], 0) {
		t.Error("tiny candidate list should not pack")
	}
	if AutoPack(0, 30, big, 0) || AutoPack(1000, 0, nil, 0) {
		t.Error("degenerate shapes should not pack")
	}
	// 23 distinct columns × 16 words × 8 bytes = 2944: a smaller budget
	// must refuse (a packed pass loads every column at once), a larger
	// one accept.
	words := int64((1000 + 63) / 64)
	arena := 23 * words * 8
	if AutoPack(1000, 30, big, arena-1) {
		t.Error("arena over budget should not pack")
	}
	if !AutoPack(1000, 30, big, arena) {
		t.Error("arena exactly at budget should pack")
	}
}

// FuzzPackedVsScalar: for arbitrary shapes, densities and worker
// counts, the packed pass must reproduce the scalar pass bit for bit.
func FuzzPackedVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(100), uint8(12), uint8(64), uint8(2), uint8(1))
	f.Add(uint64(2), uint8(37), uint8(5), uint8(128), uint8(5), uint8(4))
	f.Add(uint64(3), uint8(0), uint8(3), uint8(10), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, density, thresh uint8, workers uint8) {
		n := int(rows)
		m := 2 + int(cols)%40
		rng := hashing.NewSplitMix64(seed)
		mat := randomMatrix(rng, n, m, float64(density)/255)
		cand := randomCandidates(rng, m, 1+rng.Intn(80))
		threshold := float64(thresh%101) / 100
		want, wantStats, err := Exact(mat.Stream(), cand, threshold)
		if err != nil {
			t.Fatal(err)
		}
		opt := PackedOptions{Workers: 1 + int(workers)%4}
		for _, src := range []matrix.RowSource{mat.Stream(), streamOnly{mat.Stream()}} {
			got, st, err := ExactPacked(src, cand, threshold, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("packed output differs:\npacked %v\nscalar %v", got, want)
			}
			if st.Touches != wantStats.Touches || st.Out != wantStats.Out {
				t.Fatalf("packed Stats differ: %+v vs %+v", st, wantStats)
			}
		}
	})
}
