package assocmine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"assocmine/internal/matrix"
)

func fileDatasetFixture(t *testing.T, ext string) (*Dataset, *FileDataset) {
	t.Helper()
	d, err := fixtures["f21"]()
	if err != nil {
		t.Fatal(err)
	}
	return d, openSaved(t, d, ext)
}

// handWrittenText is a text dataset no writer of this package produces:
// row 1 is unsorted, rows 0 and 5 repeat a column, row 4 does both. Both
// readers must deliver each row as the sorted set it denotes.
const handWrittenText = `%%assocmine-matrix v1
6 4
0 0 1
1 0
1 2
2
3 1 0 1 3
3 3 2
`

// handWrittenFixture loads handWrittenText both ways.
func handWrittenFixture(t *testing.T) (*Dataset, *FileDataset) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hand.txt")
	if err := os.WriteFile(path, []byte(handWrittenText), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := OpenFileDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	return d, fd
}

// TestFileDatasetMatchesInMemory: mining a written file is a cell of
// the equivalence matrix for every algorithm; a hand-written one, whose
// rows no writer of this package produces, mines from disk exactly what
// it loads to.
func TestFileDatasetMatchesInMemory(t *testing.T) {
	runGroup(t)
	d, fd := handWrittenFixture(t)
	for _, cfg := range []Config{
		{Algorithm: BruteForce, Threshold: 0.3},
		{Algorithm: MinHash, Threshold: 0.3, K: 60, Seed: 5},
		{Algorithm: KMinHash, Threshold: 0.3, K: 60, Seed: 5},
		{Algorithm: MinLSH, Threshold: 0.3, K: 60, R: 3, L: 20, Seed: 5},
		{Algorithm: HammingLSH, Threshold: 0.3, R: 6, L: 10, Seed: 5},
	} {
		t.Run(fmt.Sprintf("hand-written/%v", cfg.Algorithm), func(t *testing.T) {
			mem, err := SimilarPairs(d, cfg)
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			file, err := fd.SimilarPairs(cfg)
			if err != nil {
				t.Fatalf("file: %v", err)
			}
			samePairs(t, file.Pairs, mem.Pairs)
			sameStats(t, file.Stats, mem.Stats, scheduleFields...)
		})
	}
}

// TestHandWrittenTextRows: every [from, to) of the hand-written file
// scans to the sorted sets a full scan delivers, and the file transcodes
// to ".arows" — whose reader rejects anything but strictly increasing
// rows — and back to the same rows.
func TestHandWrittenTextRows(t *testing.T) {
	d, fd := handWrittenFixture(t)
	want := [][]int32{{0, 1}, {0, 1}, {1, 2}, {2}, {0, 1, 3}, {2, 3}}
	collect := func(src matrix.RowSource) [][]int32 {
		var got [][]int32
		if err := src.Scan(func(_ int, cols []int32) error {
			got = append(got, append([]int32{}, cols...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := collect(d.m.Stream()); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded rows %v, want %v", got, want)
	}
	for from := 0; from <= len(want); from++ {
		for to := from; to <= len(want); to++ {
			got := collect(&matrix.RangeSource{Src: fd.src, From: from, To: to})
			if len(got) != to-from || (to > from && !reflect.DeepEqual(got, want[from:to])) {
				t.Errorf("rows [%d, %d) = %v, want %v", from, to, got, want[from:to])
			}
		}
	}
	path := filepath.Join(t.TempDir(), "hand.arows")
	if err := matrix.SaveRowBinary(path, fd.src); err != nil {
		t.Fatal(err)
	}
	back, err := matrix.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(back); !reflect.DeepEqual(got, want) {
		t.Errorf("transcoded rows %v, want %v", got, want)
	}
}

func TestFileDatasetLoad(t *testing.T) {
	d, fd := fileDatasetFixture(t, ".txt")
	loaded, err := fd.Load()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Ones() != d.Ones() {
		t.Errorf("loaded Ones = %d, want %d", loaded.Ones(), d.Ones())
	}
	// Each load reads the file again into a matrix of its own.
	again, err := fd.Load()
	if err != nil {
		t.Fatal(err)
	}
	if again.m == loaded.m || again.Ones() != loaded.Ones() {
		t.Errorf("second Load: shared matrix %v, Ones %d, want a new matrix of %d", again.m == loaded.m, again.Ones(), loaded.Ones())
	}
}

// TestFileDatasetTruncated: a file cut short mid-stream must fail both
// loading and streamed mining with an error naming the file, so the
// user can tell which input of a multi-file job is damaged.
func TestFileDatasetTruncated(t *testing.T) {
	for _, ext := range []string{".txt", ".arows"} {
		t.Run(ext, func(t *testing.T) {
			d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 200, Cols: 30, PairsPerRange: 1, Seed: 51})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trunc"+ext)
			if err := d.Save(path); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
			fd, err := OpenFileDataset(path)
			if err != nil {
				t.Fatalf("header of half-truncated file should still parse: %v", err)
			}
			if _, err := fd.Load(); err == nil {
				t.Fatal("Load succeeded on truncated file")
			} else if !strings.Contains(err.Error(), path) {
				t.Fatalf("Load error does not name the file: %v", err)
			}
			_, err = fd.SimilarPairs(Config{Algorithm: MinHash, Threshold: 0.5, K: 20, Seed: 3})
			if err == nil {
				t.Fatal("streamed mining succeeded on truncated file")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("streamed error does not name the file: %v", err)
			}
			// The parallel streamed path must surface the same failure.
			_, err = fd.SimilarPairs(Config{Algorithm: MinHash, Threshold: 0.5, K: 20, Seed: 3, Workers: 4})
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("parallel streamed error does not name the file: %v", err)
			}
		})
	}
}

func TestOpenFileDatasetMissing(t *testing.T) {
	if _, err := OpenFileDataset(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFileDatasetMineRules(t *testing.T) {
	d, fd := fileDatasetFixture(t, ".txt")
	cfg := Config{Algorithm: Rules, Threshold: 0.7, K: 80, Seed: 3}
	mem, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	file, err := fd.SimilarPairs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Pairs) == 0 {
		t.Fatal("no rules mined: the comparison is vacuous")
	}
	samePairs(t, file.Pairs, mem.Pairs)
}
