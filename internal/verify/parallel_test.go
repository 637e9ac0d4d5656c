package verify

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// streamOnly hides the ConcurrentScan capability of an in-memory
// source, forcing the unbudgeted ExactBudgeted onto the single-reader fan-out path.
type streamOnly struct{ src matrix.RowSource }

func (s streamOnly) NumRows() int { return s.src.NumRows() }
func (s streamOnly) NumCols() int { return s.src.NumCols() }
func (s streamOnly) Scan(fn func(int, []int32) error) error {
	return s.src.Scan(fn)
}

func allPairsCandidates(cols int) []pairs.Scored {
	var cand []pairs.Scored
	for i := int32(0); i < int32(cols); i++ {
		for j := i + 1; j < int32(cols); j++ {
			cand = append(cand, pairs.Scored{Pair: pairs.Make(i, j), Estimate: float64(i)})
		}
	}
	return cand
}

func TestExactParallelMatchesSerial(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := hashing.NewSplitMix64(7)
	m := randomMatrix(rng, 500, 60, 0.1)
	cand := allPairsCandidates(60) // 1770 candidates: several shards at every worker count
	want, wantSt, err := Exact(m.Stream(), cand, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name string
		s    matrix.RowSource
	}{
		{"concurrent", m.Stream()},
		{"fanout", streamOnly{m.Stream()}},
	} {
		for _, workers := range []int{1, 2, 3, 8, -1} {
			t.Run(fmt.Sprintf("%s/workers=%d", src.name, workers), func(t *testing.T) {
				got, st, err := ExactBudgeted(src.s, cand, 0.2, Budget{}, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("output differs from serial: %d pairs vs %d", len(got), len(want))
				}
				if src.name == "fanout" && workers > 1 && st.Shards <= 0 {
					t.Errorf("fan-out reported %d shards", st.Shards)
				}
				st.Shards = 0 // delivery detail; differs by strategy
				if st != wantSt {
					t.Fatalf("stats %+v, want %+v", st, wantSt)
				}
			})
		}
	}
}

func TestExactParallelSmallList(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	m := randomMatrix(rng, 200, 20, 0.2)
	cand := allPairsCandidates(20)[:5]
	want, _, err := Exact(m.Stream(), cand, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExactBudgeted(m.Stream(), cand, 0.1, Budget{}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("small-list parallel output differs: %v vs %v", got, want)
	}
	// Empty candidate list short-circuits on every path.
	got, st, err := ExactBudgeted(m.Stream(), nil, 0.1, Budget{}, 8, nil)
	if err != nil || got != nil || st.In != 0 || st.Out != 0 {
		t.Fatalf("empty list: got %v, %+v, %v", got, st, err)
	}
}

func TestExactParallelErrors(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m := randomMatrix(rng, 50, 10, 0.2)
	cand := []pairs.Scored{{Pair: pairs.Pair{I: 0, J: 99}}}
	for _, workers := range []int{1, 4} {
		if _, _, err := ExactBudgeted(m.Stream(), cand, 0.5, Budget{}, workers, nil); err == nil {
			t.Errorf("workers=%d: out-of-range candidate accepted", workers)
		}
		self := []pairs.Scored{{Pair: pairs.Pair{I: 3, J: 3}}}
		if _, _, err := ExactBudgeted(m.Stream(), self, 0.5, Budget{}, workers, nil); err == nil {
			t.Errorf("workers=%d: self pair accepted", workers)
		}
		if _, _, err := ExactBudgeted(m.Stream(), nil, 1.5, Budget{}, workers, nil); err == nil {
			t.Errorf("workers=%d: bad threshold accepted", workers)
		}
	}
}

func TestExactParallelPropagatesScanError(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("boom")
	src := &failingSource{rows: 100, cols: 8, failAt: 40, err: boom}
	cand := allPairsCandidates(8)
	if _, _, err := ExactBudgeted(src, cand, 0.5, Budget{}, 4, nil); !errors.Is(err, boom) {
		t.Fatalf("want scan error, got %v", err)
	}
}

// failingSource delivers rows with a single column until failAt.
type failingSource struct {
	rows, cols, failAt int
	err                error
}

func (f *failingSource) NumRows() int { return f.rows }
func (f *failingSource) NumCols() int { return f.cols }
func (f *failingSource) Scan(fn func(int, []int32) error) error {
	for r := 0; r < f.rows; r++ {
		if r == f.failAt {
			return f.err
		}
		if err := fn(r, []int32{int32(r % f.cols)}); err != nil {
			return err
		}
	}
	return nil
}

func TestExactPairsParallel(t *testing.T) {
	rng := hashing.NewSplitMix64(13)
	m := randomMatrix(rng, 200, 30, 0.1)
	var bare []pairs.Pair
	for i := int32(0); i < 30; i += 2 {
		for j := i + 1; j < 30; j += 3 {
			bare = append(bare, pairs.Make(i, j))
		}
	}
	want, _, err := Exact(m.Stream(), zeroScored(bare), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExactBudgeted(m.Stream(), zeroScored(bare), 0.1, Budget{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel verify of bare pairs differs from Exact")
	}
}
