package driver

import (
	"reflect"
	"sync/atomic"
	"testing"

	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
	"assocmine/internal/verify"
)

// units is an Executor that cuts every phase body into single-unit
// jobs — one row, one kernel unit, one candidate — and runs them last
// first: a partition and an order the contract allows any executor.
type units struct{}

func (units) Fold(f fold.Fold, p candidate.Params, rows matrix.RowSource) (fold.Sketch, error) {
	var merged fold.State
	for r := rows.NumRows() - 1; r >= 0; r-- {
		st, err := f.New(rows.NumCols(), p.K, p.Seed)
		if err != nil {
			return fold.Sketch{}, err
		}
		if _, err := fold.FoldStream(&matrix.RangeSource{Src: rows, From: r, To: r + 1}, st, 1); err != nil {
			return fold.Sketch{}, err
		}
		if merged == nil {
			merged = st
		} else if err := merged.Merge(st); err != nil {
			return fold.Sketch{}, err
		}
	}
	return merged.Finish(), nil
}

func (units) Candidates(s candidate.Scheme, kernel func() (*candidate.Kernel, error), _ obs.Tick) ([]pairs.Scored, int64, error) {
	k, err := kernel()
	if err != nil {
		return nil, 0, err
	}
	var out []pairs.Scored
	var work int64
	for u := s.Units() - 1; u >= 0; u-- {
		part, did, err := k.Range(nil, u, u+1)
		if err != nil {
			return nil, 0, err
		}
		work += did
		out = append(out, part...)
	}
	return out, work, nil
}

func (units) Sample(rows matrix.RowSource, sup []int64, opt bps.Options) ([]pairs.Scored, bps.Stats, error) {
	var counts bps.Counts
	var inspected int64
	for r := rows.NumRows() - 1; r >= 0; r-- {
		c, n, err := bps.SampleCounts(&matrix.RangeSource{Src: rows, From: r, To: r + 1}, sup, opt)
		if err != nil {
			return nil, bps.Stats{}, err
		}
		inspected += n
		counts = bps.MergeCounts(counts, c)
	}
	cand, st, err := bps.FinalizeCounts(counts, sup, opt)
	st.Inspected = inspected
	return cand, st, err
}

func (units) Verify(rows matrix.RowSource, cand []pairs.Scored, p verify.Params) ([]pairs.Scored, verify.Stats, error) {
	var out []pairs.Scored
	var st verify.Stats
	for i := len(cand) - 1; i >= 0; i-- {
		part, s, err := verify.Verify(rows, cand[i:i+1], p)
		if err != nil {
			return nil, verify.Stats{}, err
		}
		out = append(out, part...)
		st.Touches += s.Touches
		st.PackedWords += s.PackedWords
		st.PackedBatches += s.PackedBatches
	}
	return out, st, nil
}

// contractData is seven planted pairs, similarities 0.3 to 1, among 30
// noise columns at density 1/8 and six at 3/4, whose pairs (similarity
// about 0.6) BPS subsamples and the sketch schemes' filters pass to an
// exact pass that prunes them.
func contractData(t *testing.T) *matrix.Matrix {
	t.Helper()
	n, cols := testutil.PlantedPairs(40, []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1})
	next := testutil.SplitMix64(17)
	for c := 0; c < 36; c++ {
		var col []int32
		for r := 0; r < n; r++ {
			if c < 30 && next()%8 == 0 || c >= 30 && next()%4 != 0 {
				col = append(col, int32(r))
			}
		}
		cols = append(cols, col)
	}
	return testutil.Must(matrix.New(n, cols))
}

// TestExecutorContract holds an executor that runs every phase as
// single-unit jobs in reverse to the local executor: bit-identical
// pairs, and every counter that does not depend on the partition equal.
func TestExecutorContract(t *testing.T) {
	m := contractData(t)
	partitionFree := []string{
		obs.CounterCandidates, obs.CounterPairsVerified, obs.CounterFalsePositives, obs.CounterVerifyTouches,
		obs.CounterIncrements, obs.CounterBucketPairs, obs.CounterSignatureCells,
		obs.CounterPairsSampled, obs.CounterSampleAccepts, obs.CounterSampleDups,
	}
	for _, c := range []struct {
		name string
		p    candidate.Params
	}{
		{"MH", candidate.Params{Algo: fold.MinHash, K: 40, Threshold: 0.7}},
		{"K-MH", candidate.Params{Algo: fold.KMinHash, K: 24, Threshold: 0.7}},
		{"M-LSH", candidate.Params{Algo: fold.MinLSH, K: 40, R: 4, L: 10, Threshold: 0.7}},
		{"BPS", candidate.Params{Algo: fold.BPS, SampleBudget: 2, Threshold: 0.7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.p.Seed = 5
			mine := func(exec Executor, workers int) ([]pairs.Scored, *obs.Collector) {
				t.Helper()
				col := obs.NewCollector()
				ps, err := Mine(Input{Src: m.Stream(), Column: -1, Params: c.p, Verify: verify.Params{Workers: workers}, Recorder: col, Exec: exec})
				if err != nil {
					t.Fatal(err)
				}
				return ps, col
			}
			for _, workers := range []int{1, 3} {
				want, wantCol := mine(nil, workers)
				got, gotCol := mine(units{}, workers)
				if len(want) == 0 || wantCol.Counter(obs.CounterFalsePositives) == 0 {
					t.Fatalf("a vacuous fixture: %d pairs, %d false positives", len(want), wantCol.Counter(obs.CounterFalsePositives))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: pairs differ:\n got %v\nwant %v", workers, got, want)
				}
				for _, name := range partitionFree {
					if g, w := gotCol.Counter(name), wantCol.Counter(name); g != w {
						t.Errorf("workers=%d: %s = %d, the local executor's %d", workers, name, g, w)
					}
				}
			}
		})
	}
}

// scanCounter is in-memory data that counts the scans it serves.
type scanCounter struct {
	matrix.ColumnLister
	scans atomic.Int64
}

func (s *scanCounter) ConcurrentScan() bool { return true }

func (s *scanCounter) Scan(fn func(int, []int32) error) error {
	s.scans.Add(1)
	return s.ColumnLister.Scan(fn)
}

// TestLocalVerifyLendsColumns: on in-memory data the packed kernel
// reads the column lists, not the rows, under a budget it fits as
// without one — one pass accounted, no scan — while a budget below its
// arena leaves the spilling kernel to one counted scan. Every run
// returns the same pairs.
func TestLocalVerifyLendsColumns(t *testing.T) {
	m := contractData(t)
	var cand []pairs.Scored
	for i := 0; i < m.NumCols(); i++ {
		for j := i + 1; j < m.NumCols(); j++ {
			cand = append(cand, pairs.Scored{Pair: pairs.Make(int32(i), int32(j))})
		}
	}
	arena := int64(m.NumCols()) * int64((m.NumRows()+63)/64) * 8
	var want []pairs.Scored
	for _, c := range []struct {
		budget int64
		packs  bool
	}{{0, true}, {arena, true}, {arena - 1, false}} {
		if verify.AutoPack(m.NumRows(), m.NumCols(), cand, c.budget) != c.packs {
			t.Fatalf("budget %d: AutoPack is not %v", c.budget, c.packs)
		}
		src := &scanCounter{ColumnLister: m.Stream().(matrix.ColumnLister)}
		r := newRun(Input{Src: src, Column: -1})
		p := verify.Params{Threshold: 0.5, Budget: verify.Budget{Bytes: c.budget, Dir: t.TempDir()}}
		got, st, err := local{r}.Verify(r.counting, cand, p)
		if err != nil {
			t.Fatal(err)
		}
		if packed := st.PackedBatches > 0; packed != c.packs {
			t.Fatalf("budget %d: packed = %v", c.budget, packed)
		}
		if scans := src.scans.Load(); scans != 0 && c.packs || scans != 1 && !c.packs {
			t.Errorf("budget %d: the data was scanned %d times", c.budget, scans)
		}
		if r.counting.Passes != 1 || r.counting.Rows != int64(m.NumRows()) {
			t.Errorf("budget %d: %d passes and %d rows accounted, want 1 and %d", c.budget, r.counting.Passes, r.counting.Rows, m.NumRows())
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: pairs differ from the unbudgeted run's", c.budget)
		}
	}
	if len(want) == 0 {
		t.Fatal("a vacuous fixture: no pair passes")
	}
}
