package kminhash

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

func TestSketchCodecRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(21)
	m := randomMatrix(rng, 400, 50, 0.06)
	const k, seed = 12, 17
	s, err := Compute(m.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteCompressed(&buf, seed, m.NumRows()); err != nil {
		t.Fatal(err)
	}
	// Compare against the raw cost of the same sketch: 8 bytes per
	// value plus a byte-ish per column of bookkeeping.
	rawBytes := 0
	for c, sig := range s.Sigs {
		rawBytes += 8*len(sig) + 2
		_ = c
	}
	if buf.Len()*3 > rawBytes+48 {
		t.Errorf("compressed %d bytes, raw equivalent %d: expected at least 3x", buf.Len(), rawBytes)
	}
	got, gotSeed, err := ReadSketches(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotSeed != seed || got.K != s.K || got.Updates != s.Updates {
		t.Fatalf("header k=%d seed=%d updates=%d", got.K, gotSeed, got.Updates)
	}
	if len(got.Sigs) != len(s.Sigs) || len(got.ColSizes) != len(s.ColSizes) {
		t.Fatalf("%d columns decoded, want %d", len(got.Sigs), len(s.Sigs))
	}
	for c := range s.Sigs {
		if got.ColSizes[c] != s.ColSizes[c] {
			t.Fatalf("column %d size %d, want %d", c, got.ColSizes[c], s.ColSizes[c])
		}
		if len(got.Sigs[c]) != len(s.Sigs[c]) {
			t.Fatalf("column %d sketch length %d, want %d", c, len(got.Sigs[c]), len(s.Sigs[c]))
		}
		for i := range s.Sigs[c] {
			if got.Sigs[c][i] != s.Sigs[c][i] {
				t.Fatalf("column %d value %d differs", c, i)
			}
		}
	}
}

func TestSketchCodecEmptyAndShortColumns(t *testing.T) {
	// Columns with no rows and columns with fewer than k rows.
	m := testutil.Must(matrix.New(20, [][]int32{{0, 5, 19}, {}, {7}}))
	s, err := Compute(m.Stream(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteCompressed(&buf, 3, m.NumRows()); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSketches(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sigs[1]) != 0 || got.ColSizes[1] != 0 {
		t.Error("empty column not preserved")
	}
	if len(got.Sigs[2]) != 1 {
		t.Errorf("short column sketch length %d, want 1", len(got.Sigs[2]))
	}
	// The decoded arenas must keep the capacity contract (append up to
	// k without reallocating past the column's region is not required,
	// but capacity must not exceed k so neighbours cannot be clobbered).
	for c := range got.Sigs {
		if cap(got.Sigs[c]) > got.K {
			t.Errorf("column %d arena capacity %d exceeds k=%d", c, cap(got.Sigs[c]), got.K)
		}
	}
}

func TestWriteCompressedSketchRejectsForeignValues(t *testing.T) {
	m := testutil.Must(matrix.New(10, [][]int32{{0, 2, 4}}))
	s, err := Compute(m.Stream(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Sigs[0][0] ^= 1
	var buf bytes.Buffer
	if err := s.WriteCompressed(&buf, 9, m.NumRows()); err == nil {
		t.Fatal("foreign value accepted")
	}
}

// kmc1 builds a compressed-sketch header plus body for hostile cases.
func kmc1(k, m, rows, seed, updates uint64, body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(sketchCompressedMagic)
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], k)
	binary.LittleEndian.PutUint64(hdr[8:], m)
	binary.LittleEndian.PutUint64(hdr[16:], rows)
	binary.LittleEndian.PutUint64(hdr[24:], seed)
	binary.LittleEndian.PutUint64(hdr[32:], updates)
	buf.Write(hdr[:])
	buf.Write(body)
	return buf.Bytes()
}

func TestReadSketchesErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", []byte("XMC1\x00\x00\x00\x00"), "bad magic"},
		{"truncated header", []byte("KMC1"), "reading header"},
		{"zero k", kmc1(0, 1, 1, 0, 0, nil), "implausible dimensions"},
		{"huge k", kmc1(1<<30, 1, 1, 0, 0, nil), "implausible dimensions"},
		{"too many values", kmc1(1<<18, 1<<31, 1, 0, 0, nil), "too large"},
		{"implausible updates", kmc1(1, 1, 1, 0, 1<<63, nil), "implausible update"},
		{"truncated columns", kmc1(1, 3, 4, 0, 0, []byte{0x00, 0x00}), "column 1 size"},
		{"size exceeds rows", kmc1(1, 1, 4, 0, 0, []byte{0x09}), "exceeds 4 rows"},
		{"length exceeds size", kmc1(4, 1, 8, 0, 0, []byte{0x01, 0x02}), "sketch length 2 exceeds"},
		{"length exceeds k", kmc1(1, 1, 8, 0, 0, []byte{0x05, 0x03}), "sketch length 3 exceeds"},
		// rows=2 -> width 2: byte 0x03 decodes row id 3 >= 2.
		{"row id out of range", kmc1(1, 1, 2, 0, 0, []byte{0x01, 0x01, 0x03}), "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadSketches(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzReadSketches: any input parses or errors, never panics, and
// allocation is paced by input size rather than the header's claim.
func FuzzReadSketches(f *testing.F) {
	m := testutil.Must(matrix.New(30, [][]int32{{0, 3, 17}, {}, {5, 6, 7, 8, 9}}))
	s, err := Compute(m.Stream(), 4, 11)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := s.WriteCompressed(&seed, 11, m.NumRows()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, cut := range []int{4, 30, 44, seed.Len() - 1} {
		if cut < seed.Len() {
			f.Add(seed.Bytes()[:cut])
		}
	}
	f.Add(kmc1(8, 1<<30, 1<<30, 0, 0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, sd, err := ReadSketches(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(got.Sigs) != len(got.ColSizes) {
			t.Fatal("column tables out of sync")
		}
		// Whatever parsed must re-encode and re-parse identically: the
		// decoder only admits values derivable from (seed, row id), so
		// the functional encoder must accept them all back. The row
		// count lives in the header the decoder just validated.
		rows := binary.LittleEndian.Uint64(data[4+16 : 4+24])
		if rows > 1<<20 {
			return // re-encoding is O(rows); skip the huge-n corner
		}
		var out bytes.Buffer
		if err := got.WriteCompressed(&out, sd, int(rows)); err != nil {
			t.Fatalf("re-encode of parsed sketches failed: %v", err)
		}
		got2, sd2, err := ReadSketches(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if sd2 != sd || got2.K != got.K || got2.Updates != got.Updates || len(got2.Sigs) != len(got.Sigs) {
			t.Fatal("round trip changed header")
		}
		for c := range got.Sigs {
			if got2.ColSizes[c] != got.ColSizes[c] || len(got2.Sigs[c]) != len(got.Sigs[c]) {
				t.Fatalf("column %d shape changed in round trip", c)
			}
			for i := range got.Sigs[c] {
				if got2.Sigs[c][i] != got.Sigs[c][i] {
					t.Fatalf("column %d value %d changed in round trip", c, i)
				}
			}
		}
	})
}
