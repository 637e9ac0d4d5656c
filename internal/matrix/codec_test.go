package matrix

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/testutil"
)

// loadFile reads a dataset file as assocmine.LoadDataset does: the
// file's source, collected.
func loadFile(path string) (*Matrix, error) {
	src, err := OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// ReadText parses the text format written by writeText from a reader:
// the in-memory oracle the file path (loadFile through FileSource's text
// decoder) is held to.
func ReadText(r io.Reader) (*Matrix, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	rows, cols, err := readTextHeader(br)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	b := NewBuilder(rows, cols)
	var buf []int32
	for row := 0; row < rows; row++ {
		line, err := readLine(br)
		if err == nil {
			buf, err = parseTextRow(line, cols, buf[:0])
		}
		if err != nil {
			return nil, fmt.Errorf("matrix: row %d: %w", row, err)
		}
		for _, c := range buf {
			b.Set(row, int(c))
		}
	}
	return b.Build(), nil
}

// TestLoadFileTextMatchesReadText: loadFile of a ".txt" file (through
// FileSource) gives the same matrix as the ReadText oracle, or fails
// where the oracle fails — over the committed text fixtures, the text
// fuzz seeds and hand-written edge files.
func TestLoadFileTextMatchesReadText(t *testing.T) {
	inputs := map[string][]byte{
		"crlf":              []byte(textHeader + "\r\n3 3\r\n0 2\r\n\r\n1\r\n"),
		"no-final-newline":  []byte(textHeader + "\n2 3\n0 1\n2"),
		"blank-last-row":    []byte(textHeader + "\n2 3\n0 1\n\n"),
		"blank-last-no-nl":  []byte(textHeader + "\n2 3\n0 1\n"),
		"too-few-rows":      []byte(textHeader + "\n3 3\n0 1\n"),
		"trailing-lines":    []byte(textHeader + "\n1 3\n2\nextra line\n9 9 9\n"),
		"unsorted-repeats":  []byte(textHeader + "\n2 4\n3 1 1\n2 0\n"),
		"empty":             nil,
		"bad-dims":          []byte(textHeader + "\n-1 -1\n"),
		"out-of-range":      []byte(textHeader + "\n1 1\n5\n"),
		"fuzz-seed-rows":    []byte(textHeader + "\n2 2\n0 1\n\n"),
		"fuzz-seed-scanrng": []byte(textHeader + "\n3 4\n3 1 1\n\n0 2\n"),
	}
	var seed bytes.Buffer
	if err := writeText(&seed, paperExample()); err != nil {
		t.Fatal(err)
	}
	inputs["paper-example"] = seed.Bytes()
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "*", "*", "testdata", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	root, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.txt"))
	for _, path := range append(fixtures, root...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[path] = data
	}
	dir := t.TempDir()
	for name, data := range inputs {
		want, wantErr := ReadText(bytes.NewReader(data))
		path := filepath.Join(dir, strings.NewReplacer("/", "_", ".", "_").Replace(name)+".txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, gotErr := loadFile(path)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Errorf("%s: ReadText err = %v, loadFile err = %v", name, wantErr, gotErr)
		case wantErr == nil && !matricesEqual(want, got):
			t.Errorf("%s: loadFile and ReadText disagree", name)
		}
	}
}

// TestLoadFileTextErrorNamesFile: a malformed ".txt" file fails with a
// *FileError carrying its path and the byte offset reached.
func TestLoadFileTextErrorNamesFile(t *testing.T) {
	data := []byte(textHeader + "\n2 2\n0 1\nzzz\n")
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadFile(path)
	var fe *FileError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *FileError", err, err)
	}
	if fe.Path != path {
		t.Errorf("FileError.Path = %q, want %q", fe.Path, path)
	}
	if fe.Offset <= 0 || fe.Offset > int64(len(data)) {
		t.Errorf("FileError.Offset = %d outside file of %d bytes", fe.Offset, len(data))
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Errorf("error %q does not name the failing row", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	m := paperExample()
	var buf bytes.Buffer
	if err := writeText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Error("text round trip mismatch")
	}
}

func TestTextFormatShape(t *testing.T) {
	m := testutil.Must(New(2, [][]int32{{0}, {0, 1}}))
	var buf bytes.Buffer
	if err := writeText(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	if lines[1] != "2 2" {
		t.Errorf("dimension line = %q", lines[1])
	}
	if lines[2] != "0 1" || lines[3] != "1" {
		t.Errorf("row lines = %q, %q", lines[2], lines[3])
	}
}

func TestTextEmptyRows(t *testing.T) {
	m := testutil.Must(New(3, [][]int32{{1}}))
	var buf bytes.Buffer
	if err := writeText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Error("matrix with empty rows did not round trip")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                                  // no header
		"garbage\n1 1\n0\n",                 // bad header
		"%%assocmine-matrix v1\nx y\n",      // bad dims
		"%%assocmine-matrix v1\n-1 2\n",     // negative dims
		"%%assocmine-matrix v1\n1 1\nzzz\n", // bad column token
		"%%assocmine-matrix v1\n1 1\n5\n",   // column out of range
		"%%assocmine-matrix v1\n2 1\n0\n",   // missing row line
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText accepted %q", in)
		}
	}
}

// TestRetiredAMX1FailsByName: a file that opens with the AMX1 magic
// fails at open with the error that names the format retired, whatever
// its suffix, and so does a scan of a file rewritten as AMX1 after the
// open.
func TestRetiredAMX1FailsByName(t *testing.T) {
	amx := rowBinary(retiredMagic, []uint64{2, 2}, []uint64{1, 0, 1, 1})
	for _, name := range []string{"d.amx", "d.txt", "d.arows", "d.carows"} {
		_, err := OpenFileSourceFS(memFS(amx), name)
		var fe *FileError
		if !errors.As(err, &fe) || !errors.Is(err, errRetired) || !strings.Contains(err.Error(), "AMX1") || fe.Offset != 0 {
			t.Errorf("%s: %v, want a *FileError at byte 0 naming AMX1 retired", name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "d.arows")
	if err := SaveFile(path, paperExample()); err != nil {
		t.Fatal(err)
	}
	src := testutil.Must(OpenFileSource(path))
	if err := os.WriteFile(path, amx, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.Scan(func(int, []int32) error { return nil }); !errors.Is(err, errRetired) {
		t.Errorf("scan of a file rewritten as AMX1: %v, want the retired-format error", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	m := paperExample()
	for _, name := range []string{"m.txt", "m.arows"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, m); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		got, err := loadFile(path)
		if err != nil {
			t.Fatalf("loadFile(%s): %v", name, err)
		}
		if !matricesEqual(m, got) {
			t.Errorf("file round trip mismatch for %s", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := loadFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("loadFile on missing file succeeded")
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		m := randomMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(8), rng.Float64()*0.5)
		var buf bytes.Buffer
		if err := writeText(&buf, m); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return matricesEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
