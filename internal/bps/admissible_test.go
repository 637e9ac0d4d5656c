package bps

import (
	"fmt"
	"strings"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// fullSampler is the sampler as it was before draws were filtered by
// admissibility: every accepted draw is tallied, whether or not its pair
// could ever reach the candidate filter. It is the oracle the admissible
// tally is checked against.
type fullSampler struct{ *sampler }

func (s fullSampler) row(row int, cols []int32) error {
	for _, c := range cols {
		if c < 0 || int(c) >= len(s.sup) {
			return fmt.Errorf("bps: row %d references column %d outside [0,%d)", row, c, len(s.sup))
		}
	}
	rowH := hashing.Mix64(s.seedMix ^ (uint64(row)+1)*0x9e3779b97f4a7c15)
	for a := 0; a+1 < len(cols); a++ {
		i := cols[a]
		si := float64(s.sup[i])
		for b := a + 1; b < len(cols); b++ {
			j := cols[b]
			if i == j {
				continue
			}
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			s.inspected++
			key := pairs.Pair{I: lo, J: hi}.Key()
			if p := s.f.scale / (si * float64(s.sup[j])); p < 1 {
				u := float64(hashing.Mix64(rowH^key)>>11) / (1 << 53)
				if u >= p {
					continue
				}
			}
			if s.chunk = append(s.chunk, key); len(s.chunk) >= s.chunkCap {
				s.flush()
			}
		}
	}
	return nil
}

// skewedRows draws rows × cols rows whose column densities spread from
// a quarter to 1.75 times density, so supports are unequal and many
// pairs are inadmissible.
func skewedRows(rng *hashing.SplitMix64, rows, cols int, density float64) [][]int32 {
	out := make([][]int32, rows)
	for r := range out {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density*(0.25+1.5*float64(c)/float64(cols)) {
				out[r] = append(out[r], int32(c))
			}
		}
	}
	return out
}

// tally deals rows round-robin to one sampler per worker, each fed
// through row, and merges their counts.
func tally(rows [][]int32, samplers []*sampler, row func(*sampler, int, []int32) error) (Counts, int64, error) {
	for r, cols := range rows {
		if err := row(samplers[r%len(samplers)], r, cols); err != nil {
			return Counts{}, 0, err
		}
	}
	var c Counts
	var inspected int64
	for _, s := range samplers {
		c = MergeCounts(c, s.counts())
		inspected += s.inspected
	}
	return c, inspected, nil
}

// TestAdmissibleTallyMatchesFull: the tally of admissible draws yields
// the full tally's candidates and estimates bit for bit — through the
// sampler at every chunk capacity and worker count, through Sample, and
// through the dist split (SampleCounts over row ranges, MergeCounts,
// FinalizeCounts) — with Inspected unchanged, every tallied key
// satisfying min(s_i, s_j) >= the filter's count, and the tally equal
// to the full one restricted to those keys.
func TestAdmissibleTallyMatchesFull(t *testing.T) {
	testutil.CheckGoroutines(t)
	const nRows, nCols = 120, 36
	rng := hashing.NewSplitMix64(23)
	dropped := 0
	for _, density := range []float64{0.01, 0.05, 0.15, 0.3} {
		rows := skewedRows(rng, nRows, nCols, density)
		src := &matrix.SliceSource{Cols: nCols, Rows: rows}
		sup, err := Supports(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 8, 64} {
			for _, delta := range []float64{0, 0.2, 0.99} {
				for _, threshold := range []float64{0.3, 0.5, 0.9} {
					opt := Options{Threshold: threshold, Delta: delta, Budget: budget, Seed: 5}
					f, seedMix := sampleParams(sup, opt)
					full, fullInspected, err := tally(rows, []*sampler{newSampler(sup, f, seedMix, chunkKeys)},
						func(s *sampler, r int, cols []int32) error { return fullSampler{s}.row(r, cols) })
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := FinalizeCounts(full, sup, opt)
					if err != nil {
						t.Fatal(err)
					}
					admissible := map[uint64]int64{}
					for x, key := range full.Keys {
						p := pairs.FromKey(key)
						if _, need := f.at(float64(sup[p.I]), float64(sup[p.J])); float64(min(sup[p.I], sup[p.J])) >= need {
							admissible[key] = full.N[x]
						}
					}
					dropped += len(full.Keys) - len(admissible)
					for _, workers := range []int{1, 4} {
						cell := fmt.Sprintf("d=%v λ=%d δ=%v s*=%v workers=%d", density, budget, delta, threshold, workers)
						for _, chunkCap := range []int{1, 7, chunkKeys} {
							samplers := make([]*sampler, workers)
							for w := range samplers {
								samplers[w] = newSampler(sup, f, seedMix, chunkCap)
							}
							got, inspected, err := tally(rows, samplers, (*sampler).row)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("%s chunk=%d", cell, chunkCap)
							if inspected != fullInspected {
								t.Fatalf("%s: inspected %d, full sampler %d", label, inspected, fullInspected)
							}
							sameTally(t, label, got, admissible)
							cand, _, err := FinalizeCounts(got, sup, opt)
							if err != nil {
								t.Fatal(err)
							}
							sameCandidates(t, label, cand, want)
						}
						opt.Workers = workers
						cand, st, err := Sample(src, sup, opt)
						if err != nil {
							t.Fatal(err)
						}
						sameCandidates(t, cell+" Sample", cand, want)
						if st.Inspected != fullInspected {
							t.Fatalf("%s Sample: inspected %d, full sampler %d", cell, st.Inspected, fullInspected)
						}
						var merged Counts
						for _, cut := range [][2]int{{0, 1}, {1, 47}, {47, nRows}} {
							part := &matrix.RangeSource{Src: src, From: cut[0], To: cut[1]}
							c, _, err := SampleCounts(part, sup, opt)
							if err != nil {
								t.Fatal(err)
							}
							merged = MergeCounts(merged, c)
						}
						split, sst, err := FinalizeCounts(merged, sup, opt)
						if err != nil {
							t.Fatal(err)
						}
						sameCandidates(t, cell+" split", split, want)
						if sst.Accepts != st.Accepts || sst.Dups != st.Dups {
							t.Fatalf("%s: split accepts/dups %d/%d, Sample %d/%d", cell, sst.Accepts, sst.Dups, st.Accepts, st.Dups)
						}
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no inadmissible pair in the whole grid: the fixture does not exercise the bound")
	}
}

func sameCandidates(t *testing.T, label string, got, want []pairs.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRepeatedColumnRejected: a row naming a column twice — sorted or
// not — is rejected by Supports and by the sampler at every worker
// count, also when the supports come from the trusting FoldState (which
// counts the repeat twice), as run.fold hands them over.
func TestRepeatedColumnRejected(t *testing.T) {
	for _, row := range [][]int32{{3, 3, 5}, {5, 3, 5}, {1, 4, 2, 4}} {
		src := &badRowSource{rows: 3, cols: 6, data: [][]int32{{0, 1}, row, {2, 5}}}
		if _, err := Supports(src); err == nil || !strings.Contains(err.Error(), "row 1 repeats column") {
			t.Errorf("row %v: Supports returned %v", row, err)
		}
		fs := NewFoldState(src.cols)
		for r, cols := range src.data {
			fs.FoldRow(r, cols)
		}
		trusted := fs.Finish()
		for _, workers := range []int{1, 4} {
			opt := Options{Threshold: 0.5, Budget: 8, Workers: workers}
			if _, _, err := Sample(src, trusted, opt); err == nil || !strings.Contains(err.Error(), "row 1 repeats column") {
				t.Errorf("row %v workers=%d: Sample returned %v", row, workers, err)
			}
			if _, _, err := SampleCounts(src, trusted, opt); err == nil {
				t.Errorf("row %v workers=%d: SampleCounts accepted the row", row, workers)
			}
		}
	}
	// A column may recur across rows, just not within one.
	src := &badRowSource{rows: 2, cols: 3, data: [][]int32{{0, 2}, {0, 2}}}
	if sup, err := Supports(src); err != nil || sup[0] != 2 || sup[2] != 2 {
		t.Errorf("distinct rows sharing columns: supports %v, %v", sup, err)
	}
	testutil.CheckGoroutines(t)
}
