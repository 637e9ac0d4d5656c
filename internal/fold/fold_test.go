package fold

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// The three folds, under the algorithm that selects each.
var folds = []struct {
	name string
	algo Algo
}{{"mh", MinHash}, {"kmh", KMinHash}, {"supports", BPS}}

const (
	testK    = 12
	testSeed = 5
)

// fixture is a random rows x cols source, one entry in 4; the last
// column stays empty.
func fixture(rows, cols int, seed uint64) *matrix.SliceSource {
	rng := hashing.NewSplitMix64(seed)
	out := make([][]int32, rows)
	for r := range out {
		var row []int32
		for c := 0; c < cols-1; c++ {
			if rng.Intn(4) == 0 {
				row = append(row, int32(c))
			}
		}
		out[r] = row
	}
	return &matrix.SliceSource{Cols: cols, Rows: out}
}

func newState(t testing.TB, algo Algo, m int) State {
	t.Helper()
	f, ok := For(algo)
	if !ok {
		t.Fatalf("no fold for %v", algo)
	}
	st, err := f.New(m, testK, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// serial is the oracle: a FoldRow loop over rows [from, to) of mem.
func serial(t testing.TB, algo Algo, mem *matrix.SliceSource, from, to int) State {
	st := newState(t, algo, mem.Cols)
	for r := from; r < to; r++ {
		st.FoldRow(r, mem.Rows[r])
	}
	return st
}

func snapshot(t testing.TB, st State) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameSketch compares what phase 2 reads. The K-MH Updates counter is
// a property of the arrival order, so it is compared only where the
// fold was sequential.
func sameSketch(got, want Sketch, sequential bool) error {
	if want.KMH != nil && got.KMH != nil && !sequential {
		g := *got.KMH
		g.Updates = want.KMH.Updates
		got = Sketch{KMH: &g}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("sketches differ")
	}
	return nil
}

// TestFoldMatrix is the one equivalence table of phase 1:
// {MH, K-MH, supports} x {1, 2, 4 workers, and 16 on the tiny sources}
// x {memory, .arows, .carows, a row range, and the edge shapes}. In
// every cell the streamed fold equals the serial FoldRow loop (the raw
// state byte for byte when sequential, the finished sketch otherwise),
// two halves merged equal the whole, and a snapshot restores to a state
// that folds on to the uninterrupted bytes.
func TestFoldMatrix(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := fixture(2000, 50, 11)
	dir := t.TempDir()
	file := func(name string, save func(string, matrix.RowSource) error) matrix.RowSource {
		path := filepath.Join(dir, name)
		if err := save(path, mem); err != nil {
			t.Fatal(err)
		}
		fs, err := matrix.OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	arows := file("d.arows", matrix.SaveRowBinary)
	sources := []struct {
		name     string
		src      matrix.RowSource
		mem      *matrix.SliceSource // the rows src delivers, by global id
		from, to int
		workers  []int
		shards   int64 // expected above one worker; -1: only that some were dealt
	}{
		{"memory", mem, mem, 0, 2000, []int{1, 2, 4}, -1},
		{"arows", arows, mem, 0, 2000, []int{1, 2, 4}, -1},
		{"carows", file("d.carows", matrix.SaveRowCompressed), mem, 0, 2000, []int{1, 2, 4}, -1},
		{"range", &matrix.RangeSource{Src: arows, From: 300, To: 1700}, mem, 300, 1700, []int{1, 2, 4}, -1},
		// A tiny source fits one shard, so most consumers drain empty
		// channels and contribute empty states to the merge.
		{"one-shard", fixture(9, 12, 3), fixture(9, 12, 3), 0, 9, []int{1, 4, 16}, 1},
		{"zero-rows", &matrix.SliceSource{Cols: 6}, &matrix.SliceSource{Cols: 6}, 0, 0, []int{1, 4}, 0},
	}
	for _, fd := range folds {
		for _, sc := range sources {
			whole := serial(t, fd.algo, sc.mem, sc.from, sc.to)
			for _, workers := range sc.workers {
				t.Run(fmt.Sprintf("%s/%s/w%d", fd.name, sc.name, workers), func(t *testing.T) {
					st := newState(t, fd.algo, sc.mem.Cols)
					shards, err := FoldStream(sc.src, st, workers)
					if err != nil {
						t.Fatal(err)
					}
					// One worker folds rows straight off the scan; only a
					// dealt pass copies rows into shards.
					switch {
					case workers == 1 && shards != 0, sc.shards >= 0 && workers > 1 && shards != sc.shards, sc.shards < 0 && workers > 1 && shards == 0:
						t.Errorf("%d shards streamed", shards)
					}
					if st.Rows() != whole.Rows() {
						t.Errorf("folded %d rows, want %d", st.Rows(), whole.Rows())
					}
					if workers == 1 && !bytes.Equal(snapshot(t, st), snapshot(t, whole)) {
						t.Error("sequential streamed state differs from the serial loop's")
					}
					if err := sameSketch(st.Finish(), whole.Finish(), workers == 1); err != nil {
						t.Errorf("streamed vs serial: %v", err)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/%s/halves", fd.name, sc.name), func(t *testing.T) {
				mid := (sc.from + sc.to) / 2
				a, b := serial(t, fd.algo, sc.mem, sc.from, mid), serial(t, fd.algo, sc.mem, mid, sc.to)
				bBytes := snapshot(t, b)
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				if a.Rows() != whole.Rows() {
					t.Errorf("merged state holds %d rows, want %d", a.Rows(), whole.Rows())
				}
				if err := sameSketch(a.Finish(), whole.Finish(), false); err != nil {
					t.Errorf("merged halves vs whole: %v", err)
				}
				if !bytes.Equal(snapshot(t, b), bBytes) {
					t.Error("Merge changed its peer")
				}
			})
			t.Run(fmt.Sprintf("%s/%s/snapshot", fd.name, sc.name), func(t *testing.T) {
				f, _ := For(fd.algo)
				mid := (sc.from + sc.to) / 2
				half := snapshot(t, serial(t, fd.algo, sc.mem, sc.from, mid))
				r := bytes.NewReader(half)
				st, err := f.Read(r, sc.mem.Cols, testK, testSeed)
				if err != nil {
					t.Fatal(err)
				}
				if r.Len() != 0 {
					t.Errorf("Read left %d bytes", r.Len())
				}
				if !bytes.Equal(snapshot(t, st), half) {
					t.Fatal("snapshot round trip is not the identity")
				}
				for row := mid; row < sc.to; row++ {
					st.FoldRow(row, sc.mem.Rows[row])
				}
				if !bytes.Equal(snapshot(t, st), snapshot(t, whole)) {
					t.Error("resumed fold differs from the uninterrupted one")
				}
			})
		}
	}
}

// TestEmptyColumnsKeepTheSentinel: a column no row sets stays at the
// fold's empty value through a dealt, merged pass.
func TestEmptyColumnsKeepTheSentinel(t *testing.T) {
	src := &matrix.SliceSource{Cols: 5, Rows: [][]int32{{0, 2}, {0}, {}}}
	for _, fd := range folds {
		st := newState(t, fd.algo, 5)
		if _, err := FoldStream(src, st, 4); err != nil {
			t.Fatal(err)
		}
		sk := st.Finish()
		for _, c := range []int{1, 3, 4} {
			switch {
			case sk.MH != nil:
				for l := 0; l < sk.MH.K; l++ {
					if v := sk.MH.Value(l, c); v != ^uint64(0) {
						t.Errorf("mh: empty column %d has value %d at hash %d", c, v, l)
					}
				}
			case sk.KMH != nil:
				if len(sk.KMH.Sigs[c]) != 0 || sk.KMH.ColSizes[c] != 0 {
					t.Errorf("kmh: empty column %d not empty", c)
				}
			default:
				if sk.Sup[c] != 0 {
					t.Errorf("supports: empty column %d counted %d", c, sk.Sup[c])
				}
			}
		}
	}
}

// TestWorkersSemantic pins the one Workers reading every kernel shares:
// 0 and 1 are serial — no shards, no per-worker states, the sequential
// bytes — and only a negative count means GOMAXPROCS.
func TestWorkersSemantic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mem := fixture(2000, 50, 11)
	for _, fd := range folds {
		want := snapshot(t, serial(t, fd.algo, mem, 0, 2000))
		for _, workers := range []int{0, 1} {
			st := newState(t, fd.algo, mem.Cols)
			shards, err := FoldStream(mem, st, workers)
			if err != nil {
				t.Fatal(err)
			}
			if shards != 0 || !bytes.Equal(snapshot(t, st), want) {
				t.Errorf("%s: workers=%d streamed %d shards; want 0 and the serial state", fd.name, workers, shards)
			}
		}
		st := newState(t, fd.algo, mem.Cols)
		if shards, err := FoldStream(mem, st, -1); err != nil || shards == 0 {
			t.Errorf("%s: workers=-1 under GOMAXPROCS(4) streamed %d shards (err %v); want a dealt pass", fd.name, shards, err)
		}
	}
}

func TestMismatches(t *testing.T) {
	if _, ok := For(Algo(0)); ok {
		t.Error("BruteForce has a fold")
	}
	mh, kmh := newState(t, MinHash, 5), newState(t, KMinHash, 5)
	if err := mh.Merge(kmh); err == nil {
		t.Error("merged a K-MH state into an MH state")
	}
	if _, err := FoldStream(&matrix.SliceSource{Cols: 6}, mh, 1); err == nil {
		t.Error("folded a 6-column source into a 5-column state")
	}
	// Read checks the shape a snapshot was folded under.
	for _, fd := range folds {
		f, _ := For(fd.algo)
		snap := snapshot(t, newState(t, fd.algo, 5))
		if _, err := f.Read(bytes.NewReader(snap), 6, testK, testSeed); err == nil {
			t.Errorf("%s: 5-column snapshot read as 6 columns", fd.name)
		}
		if fd.algo == BPS {
			continue
		}
		if _, err := f.Read(bytes.NewReader(snap), 5, testK+1, testSeed); err == nil {
			t.Errorf("%s: snapshot read under another k", fd.name)
		}
		if _, err := f.Read(bytes.NewReader(snap), 5, testK, testSeed+1); err == nil {
			t.Errorf("%s: snapshot read under another seed", fd.name)
		}
	}
}

// goldenRows is the fixture the committed snapshot bytes were folded
// from (k = 4, seed = 42, 6 columns).
var goldenRows = [][]int32{
	{0, 1}, {1, 2, 3}, {0}, {}, {2, 3, 4}, {0, 1, 4}, {3}, {1, 2}, {0, 4},
}

// TestGoldenSnapshotBytes: the AMF1 and KMF1 formats are what this
// code reads, writes, and folds to — a format change is a visible diff
// of testdata/.
func TestGoldenSnapshotBytes(t *testing.T) {
	for _, g := range []struct {
		file string
		algo Algo
	}{{"golden.amf1", MinHash}, {"golden.kmf1", KMinHash}} {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		f, _ := For(g.algo)
		st, err := f.Read(bytes.NewReader(want), 6, 4, 42)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if !bytes.Equal(snapshot(t, st), want) {
			t.Errorf("%s: re-saved bytes differ", g.file)
		}
		fresh, err := f.New(6, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		for r, cols := range goldenRows {
			fresh.FoldRow(r, cols)
		}
		if !bytes.Equal(snapshot(t, fresh), want) {
			t.Errorf("%s: folding the fixture no longer yields the golden bytes", g.file)
		}
	}
}
