package main

import (
	"errors"
	"path/filepath"
	"strconv"
	"testing"

	"assocmine"
	"assocmine/internal/apriori"
)

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"4096", 4096, true},
		{" 4096 ", 4096, true},
		{"64K", 64 << 10, true},
		{"64k", 64 << 10, true},
		{"64KB", 64 << 10, true},
		{"16M", 16 << 20, true},
		{"16mb", 16 << 20, true},
		{"1G", 1 << 30, true},
		{"2GB", 2 << 30, true},
		{"-1", 0, false},
		{"12Q", 0, false},
		{"K", 0, false},
		{"1.5M", 0, false},
		{"9999999999999G", 0, false},
	}
	for _, tc := range cases {
		got, err := parseByteSize(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseByteSize(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
		{5 << 30, "5.0 GiB"},
	}
	for _, tc := range cases {
		if got := formatBytes(tc.in); got != tc.want {
			t.Errorf("formatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRunAprioriMemBudget: -mem-budget reaches a-priori, which has no
// verification pass, as the bound on its pair counters: a byte below
// their charge fails the run with ErrAprioriMemory, loaded or streamed,
// and the charge itself is enough.
func TestRunAprioriMemBudget(t *testing.T) {
	data := filepath.Join("testdata", "golden.txt")
	const support = 0.01
	d, err := assocmine.LoadDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	charge := apriori.PairBytes(len(apriori.SupportPrune(d.Matrix(), support)))
	for _, stream := range []bool{false, true} {
		o := options{in: data, algo: "apriori", threshold: 0.5, support: support, stream: stream}
		o.memBudget = strconv.FormatInt(charge-1, 10)
		if err := run(o); !errors.Is(err, assocmine.ErrAprioriMemory) {
			t.Errorf("stream=%v: -mem-budget %s, a byte below the charge: err = %v", stream, o.memBudget, err)
		}
		o.memBudget = strconv.FormatInt(charge, 10)
		if err := run(o); err != nil {
			t.Errorf("stream=%v: -mem-budget %s, at the charge: %v", stream, o.memBudget, err)
		}
	}
}
