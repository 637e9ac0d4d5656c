package main

import (
	"path/filepath"
	"testing"

	"assocmine"
)

func TestRunAllKinds(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		kind, out string
		words     string
	}{
		{"synthetic", "syn.txt", ""},
		{"weblog", "web.carows", ""},
		{"news", "news.arows", "words.txt"},
		{"quest", "quest.txt", ""},
	}
	for _, c := range cases {
		out := filepath.Join(dir, c.out)
		words := ""
		if c.words != "" {
			words = filepath.Join(dir, c.words)
		}
		if err := run(c.kind, 300, 80, 1, out, words, 0); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		d, err := assocmine.LoadDataset(out)
		if err != nil {
			t.Fatalf("%s: load: %v", c.kind, err)
		}
		if d.NumRows() != 300 {
			t.Errorf("%s: rows = %d", c.kind, d.NumRows())
		}
	}
}

func TestRunStreamKinds(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ kind, out string }{
		{"market", "market.arows"},
		{"clicks", "clicks.carows"},
	} {
		out := filepath.Join(dir, c.out)
		if err := run(c.kind, 400, 120, 7, out, "", 8); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		d, err := assocmine.LoadDataset(out)
		if err != nil {
			t.Fatalf("%s: load: %v", c.kind, err)
		}
		if d.NumRows() != 400 || d.NumCols() != 120 {
			t.Errorf("%s: dims %dx%d", c.kind, d.NumRows(), d.NumCols())
		}
		if d.Ones() == 0 {
			t.Errorf("%s: empty dataset", c.kind)
		}
	}
}

func TestRunStreamKindsNeedRowFormat(t *testing.T) {
	if err := run("market", 10, 10, 1, filepath.Join(t.TempDir(), "x.txt"), "", 0); err == nil {
		t.Error("market with .txt output accepted")
	}
}

func TestRunUnknownKind(t *testing.T) {
	if err := run("bogus", 10, 10, 1, filepath.Join(t.TempDir(), "x.txt"), "", 0); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunBadPath(t *testing.T) {
	if err := run("synthetic", 10, 10, 1, "/nonexistent-dir/x.txt", "", 0); err == nil {
		t.Error("unwritable path accepted")
	}
}
