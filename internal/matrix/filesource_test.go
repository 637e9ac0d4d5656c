package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assocmine/internal/hashing"
)

func TestFileSourceTextRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 150, 20, 0.1)
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumRows() != 150 || fs.NumCols() != 20 {
		t.Fatalf("dims %dx%d", fs.NumRows(), fs.NumCols())
	}
	got, err := Collect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Error("FileSource text scan mismatch")
	}
}

func TestFileSourceRowBinaryRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m := randomMatrix(rng, 200, 15, 0.08)
	path := filepath.Join(t.TempDir(), "data.arows")
	if err := SaveRowBinary(path, m.Stream()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Error("FileSource row-binary scan mismatch")
	}
}

func TestFileSourceMultiplePasses(t *testing.T) {
	m := paperExample()
	path := filepath.Join(t.TempDir(), "p.txt")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		rows := 0
		err := fs.Scan(func(row int, cols []int32) error {
			rows++
			return nil
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if rows != 4 {
			t.Fatalf("pass %d saw %d rows", pass, rows)
		}
	}
}

func TestFileSourcePropagatesCallbackError(t *testing.T) {
	m := paperExample()
	path := filepath.Join(t.TempDir(), "p.txt")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	fs, _ := OpenFileSource(path)
	sentinel := errors.New("stop")
	err := fs.Scan(func(row int, cols []int32) error {
		if row == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestOpenFileSourceErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFileSource(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not a header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileSource(bad); err == nil {
		t.Error("bad header accepted")
	}
	badBin := filepath.Join(dir, "bad.arows")
	if err := os.WriteFile(badBin, []byte("XXXX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileSource(badBin); err == nil {
		t.Error("bad binary magic accepted")
	}
}

func TestFileSourceRejectsCorruptRow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.txt")
	content := textHeader + "\n2 3\n0 zebra\n1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Scan(func(int, []int32) error { return nil }); err == nil {
		t.Error("corrupt row accepted")
	}
	// Out-of-range column.
	path2 := filepath.Join(dir, "c2.txt")
	if err := os.WriteFile(path2, []byte(textHeader+"\n1 2\n7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileSource(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Scan(func(int, []int32) error { return nil }); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestWriteRowBinaryDeterministic(t *testing.T) {
	m := paperExample()
	var a, b bytes.Buffer
	if err := writeRowBinary(&a, m.Stream()); err != nil {
		t.Fatal(err)
	}
	if err := writeRowBinary(&b, m.Stream()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("row-binary encoding not deterministic")
	}
}

func TestNamedTransactionsRoundTrip(t *testing.T) {
	in := "milk bread\n# a comment line\nbeer\n\nbread beer milk\n"
	m, names, err := ReadNamedTransactions(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "milk" || names[1] != "bread" || names[2] != "beer" {
		t.Fatalf("names = %v", names)
	}
	// 4 rows: the comment is skipped, the blank line is an empty
	// transaction.
	if m.NumRows() != 4 || m.NumCols() != 3 {
		t.Fatalf("dims %dx%d", m.NumRows(), m.NumCols())
	}
	if m.ColumnSize(0) != 2 || m.ColumnSize(2) != 2 {
		t.Errorf("column sizes: milk=%d beer=%d", m.ColumnSize(0), m.ColumnSize(2))
	}
	var buf bytes.Buffer
	if err := m.Stream().Scan(func(_ int, cols []int32) error {
		items := make([]string, len(cols))
		for i, c := range cols {
			items[i] = names[c]
		}
		_, err := fmt.Fprintln(&buf, strings.Join(items, " "))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m2, names2, err := ReadNamedTransactions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, m2) {
		t.Error("named transactions did not round trip")
	}
	for i := range names {
		if names[i] != names2[i] {
			t.Errorf("name %d: %q vs %q", i, names[i], names2[i])
		}
	}
}
