package assocmine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzOpenFileDataset feeds arbitrary bytes to the two on-disk formats
// FileDataset understands (text transactions and .arows row binary).
// Any input must either parse or error — never panic or blow memory on
// a hostile header — and whatever parses must survive a save/reload
// round trip with identical shape. Bytes that open with the retired
// AMX1 magic fail by that name under either suffix.
func FuzzOpenFileDataset(f *testing.F) {
	d, _, err := GenerateSynthetic(SyntheticOptions{
		Rows: 20, Cols: 10, PairsPerRange: 1, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	txt := filepath.Join(seedDir, "seed.txt")
	if err := d.Save(txt); err != nil {
		f.Fatal(err)
	}
	arows := filepath.Join(seedDir, "seed.arows")
	if err := d.Save(arows); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{txt, arows} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, p == arows)
		// Truncated variants: valid header, stream cut short mid-row.
		f.Add(data[:len(data)/2], p == arows)
		f.Add(data[:3*len(data)/4], p == arows)
	}
	f.Add([]byte(""), true)
	f.Add([]byte("AROW"), true)
	f.Add([]byte("2 2\n0 1\n1\n"), false)
	// A 2×2 matrix in the retired AMX1 format, under either suffix.
	f.Add([]byte("AMX1\x02\x02\x01\x00\x01\x01"), true)
	f.Add([]byte("AMX1\x02\x02\x01\x00\x01\x01"), false)

	f.Fuzz(func(t *testing.T, data []byte, binary bool) {
		ext := ".txt"
		if binary {
			ext = ".arows"
		}
		path := filepath.Join(t.TempDir(), "in"+ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fd, err := OpenFileDataset(path)
		if bytes.HasPrefix(data, []byte("AMX1")) && (err == nil || !strings.Contains(err.Error(), "AMX1 (.amx) is a retired")) {
			t.Fatalf("AMX1 bytes as %s: %v, want the retired-format error", ext, err)
		}
		if err != nil {
			return
		}
		// A header may legally claim huge dimensions backed by no data.
		// Every downstream phase allocates O(rows) or O(cols) state, so
		// processing such a file would test the allocator, not the
		// parser; header validation is the whole contract there.
		if fd.NumRows() > 1<<16 || fd.NumCols() > 1<<16 {
			return
		}
		loaded, err := fd.Load()
		if err != nil {
			return
		}
		out := filepath.Join(t.TempDir(), "out.arows")
		if err := loaded.Save(out); err != nil {
			t.Fatalf("saving parsed dataset: %v", err)
		}
		fd2, err := OpenFileDataset(out)
		if err != nil {
			t.Fatalf("reopening saved dataset: %v", err)
		}
		re, err := fd2.Load()
		if err != nil {
			t.Fatalf("reloading saved dataset: %v", err)
		}
		if re.NumRows() != loaded.NumRows() || re.NumCols() != loaded.NumCols() || re.Ones() != loaded.Ones() {
			t.Fatalf("round trip changed shape: %dx%d/%d ones vs %dx%d/%d ones",
				loaded.NumRows(), loaded.NumCols(), loaded.Ones(),
				re.NumRows(), re.NumCols(), re.Ones())
		}
	})
}
