package verify

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"assocmine/internal/hashing"
)

// TestSpillCodecsMatch: both spill codecs must produce output
// bit-identical to the unbounded pass, and the accounting must price
// the compression honestly (SpillBytesRaw identical across codecs,
// since the spill schedule is deterministic and codec-independent).
func TestSpillCodecsMatch(t *testing.T) {
	rng := hashing.NewSplitMix64(37)
	m := randomMatrix(rng, 600, 60, 0.1)
	cand := allPairsCandidates(60)
	want, _, err := Exact(m.Stream(), cand, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	stats := map[SpillCodec]Stats{}
	for _, codec := range []SpillCodec{SpillCompressed, SpillRaw} {
		for _, workers := range []int{1, 4} {
			budget := Budget{Bytes: 4 << 10, Dir: t.TempDir(), Codec: codec}
			got, st, err := ExactBudgeted(m.Stream(), cand, 0.03, budget, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("codec=%d workers=%d: output differs from Exact", codec, workers)
			}
			if workers == 1 {
				stats[codec] = st
			}
		}
	}
	comp, raw := stats[SpillCompressed], stats[SpillRaw]
	if comp.SpillRuns == 0 || raw.SpillRuns == 0 {
		t.Fatal("fixture did not spill; test would be vacuous")
	}
	if comp.SpillBytesCompressed != comp.SpillBytes || comp.SpillBytesRaw <= comp.SpillBytes {
		t.Errorf("compressed accounting inconsistent: %+v", comp)
	}
	if raw.SpillBytesCompressed != 0 || raw.SpillBytesRaw != raw.SpillBytes {
		t.Errorf("raw accounting inconsistent: %+v", raw)
	}
	if comp.SpillBytesRaw != raw.SpillBytes {
		t.Errorf("raw-equivalent price %d but raw codec wrote %d", comp.SpillBytesRaw, raw.SpillBytes)
	}
	if comp.SpillBytes*2 >= raw.SpillBytes {
		t.Errorf("compressed runs %d bytes vs raw %d: expected at least 2x", comp.SpillBytes, raw.SpillBytes)
	}
}

// TestSpillRunRoundTrip: both codecs restore an entry sequence exactly,
// across block boundaries.
func TestSpillRunRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	var entries []spillEntry
	idx := int32(0)
	for len(entries) < 3*spillBlockEntries+17 {
		idx += int32(rng.Next()%7) + 1
		both := int32(rng.Next() % 100)
		entries = append(entries, spillEntry{idx: idx, either: both + 1 + int32(rng.Next()%50), both: both})
	}
	for _, codec := range []SpillCodec{SpillCompressed, SpillRaw} {
		data, raw := encodeRun(t, codec, entries)
		if codec == SpillCompressed && raw <= int64(len(data)) {
			t.Fatalf("raw equivalent %d not larger than compressed %d", raw, len(data))
		}
		if codec == SpillRaw && raw != int64(len(data)) {
			t.Fatalf("raw run priced at %d bytes, wrote %d", raw, len(data))
		}
		got, err := readRun(openRun(data, codec, int(idx)+1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("codec %d: read %d entries back, wrote %d, or they differ", codec, len(got), len(entries))
		}
	}
}

// readRun drains a cursor block by block.
func readRun(c *runCursor) ([]spillEntry, error) {
	var all []spillEntry
	for {
		blk, err := c.block()
		if err != nil || len(blk) == 0 {
			return all, err
		}
		all = append(all, blk...)
		c.pos += len(blk)
	}
}

// encodeRun writes entries as one run and returns
// its bytes and raw price; the section endRun reports must be the whole
// output.
func encodeRun(t *testing.T, codec SpillCodec, entries []spillEntry) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	rw := newRunWriter(&buf, codec)
	for _, e := range entries {
		if err := rw.add(e); err != nil {
			t.Fatal(err)
		}
	}
	sec, raw, err := rw.endRun()
	if err != nil {
		t.Fatal(err)
	}
	if sec.off != 0 || sec.n != int64(buf.Len()) {
		t.Fatalf("section %+v over %d bytes written", sec, buf.Len())
	}
	return buf.Bytes(), raw
}

// openRun returns a cursor over one encoded run.
func openRun(data []byte, codec SpillCodec, nCand int) *runCursor {
	c := new(runCursor)
	c.reset(bytes.NewReader(data), runSection{n: int64(len(data))}, codec, nCand)
	return c
}

// TestSpillRunCorruptionDetected: malformed runs in either codec must
// surface as errors from the merge cursor, never as silent counts.
func TestSpillRunCorruptionDetected(t *testing.T) {
	good, _ := encodeRun(t, SpillCompressed, []spillEntry{{idx: 3, either: 2, both: 1}, {idx: 90, either: 5, both: 0}})
	cases := []struct {
		name  string
		codec SpillCodec
		data  []byte
		nCand int
		want  string
	}{
		{"zero-entry block", SpillCompressed, []byte{0x00}, 100, "block of 0"},
		{"oversized block", SpillCompressed, []byte{0xff, 0xff, 0x7f}, 100, "block of"},
		{"bad rice parameter", SpillCompressed, []byte{0x01, 0x63, 0x00, 0x00}, 100, "rice parameter"},
		{"truncated params", SpillCompressed, []byte{0x02, 0x00}, 100, "reading spill run"},
		{"truncated payload", SpillCompressed, good[:len(good)-1], 100, "reading spill run"},
		{"index out of range", SpillCompressed, good, 50, "candidate index"},
		{"raw: truncated entry", SpillRaw, []byte{3, 2}, 100, "reading spill run"},
		{"raw: index not increasing", SpillRaw, []byte{3, 2, 1, 3, 1, 0}, 100, "corrupt"},
		{"raw: index out of range", SpillRaw, []byte{3, 2, 1, 90, 5, 0}, 50, "corrupt"},
		{"raw: entry never touched", SpillRaw, []byte{3, 0, 0}, 100, "corrupt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readRun(openRun(tc.data, tc.codec, tc.nCand))
			if err == nil {
				t.Fatal("corrupt run read to EOF without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
