package verify

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"assocmine/internal/hashing"
)

// TestSpillCodecsMatch: the spilled pass must produce output
// bit-identical to the unbounded pass at any worker count, and the
// accounting must price the compression honestly: every written byte is
// a compressed byte, and the raw-equivalent price — what uvarint triples
// would have cost — is at least twice it.
func TestSpillCodecsMatch(t *testing.T) {
	rng := hashing.NewSplitMix64(37)
	m := randomMatrix(rng, 600, 60, 0.1)
	cand := allPairsCandidates(60)
	want, _, err := Exact(m.Stream(), cand, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	var serial Stats
	for _, workers := range []int{1, 4} {
		budget := Budget{Bytes: 4 << 10, Dir: t.TempDir()}
		got, st, err := ExactBudgeted(m.Stream(), cand, 0.03, budget, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: output differs from Exact", workers)
		}
		if workers == 1 {
			serial = st
		}
	}
	if serial.SpillRuns == 0 {
		t.Fatal("fixture did not spill; test would be vacuous")
	}
	if serial.SpillBytesCompressed != serial.SpillBytes || serial.SpillBytes*2 >= serial.SpillBytesRaw {
		t.Errorf("accounting inconsistent, or runs not 2x under their raw price: %+v", serial)
	}
}

// TestSpillRunRoundTrip: the codec restores an entry sequence exactly,
// across block boundaries, and prices it as the uvarint triples would.
func TestSpillRunRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	var entries []spillEntry
	var triples int64
	idx := int32(0)
	for len(entries) < 3*spillBlockEntries+17 {
		idx += int32(rng.Next()%7) + 1
		both := int32(rng.Next() % 100)
		e := spillEntry{idx: idx, either: both + 1 + int32(rng.Next()%50), both: both}
		entries = append(entries, e)
		var buf [3 * binary.MaxVarintLen32]byte
		n := binary.PutUvarint(buf[:], uint64(e.idx))
		n += binary.PutUvarint(buf[n:], uint64(e.either))
		triples += int64(n + binary.PutUvarint(buf[n:], uint64(e.both)))
	}
	data, raw := encodeRun(t, entries)
	if raw != triples || raw <= int64(len(data)) {
		t.Fatalf("run of %d bytes priced at %d raw, uvarint triples take %d", len(data), raw, triples)
	}
	got, err := readRun(openRun(data, int(idx)+1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("read %d entries back, wrote %d, or they differ", len(got), len(entries))
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
func encodeRun(t *testing.T, entries []spillEntry) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	rw := newRunWriter(&buf)
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
func openRun(data []byte, nCand int) *runCursor {
	c := new(runCursor)
	c.reset(bytes.NewReader(data), runSection{n: int64(len(data))}, nCand)
	return c
}

// TestSpillRunCorruptionDetected: malformed runs must surface as errors
// from the merge cursor, never as silent counts.
func TestSpillRunCorruptionDetected(t *testing.T) {
	good, _ := encodeRun(t, []spillEntry{{idx: 3, either: 2, both: 1}, {idx: 90, either: 5, both: 0}})
	cases := []struct {
		name  string
		data  []byte
		nCand int
		want  string
	}{
		{"zero-entry block", []byte{0x00}, 100, "block of 0"},
		{"oversized block", []byte{0xff, 0xff, 0x7f}, 100, "block of"},
		{"bad rice parameter", []byte{0x01, 0x63, 0x00, 0x00}, 100, "rice parameter"},
		{"truncated params", []byte{0x02, 0x00}, 100, "reading spill run"},
		{"truncated payload", good[:len(good)-1], 100, "reading spill run"},
		{"index out of range", good, 50, "candidate index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readRun(openRun(tc.data, tc.nCand))
			if err == nil {
				t.Fatal("corrupt run read to EOF without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
