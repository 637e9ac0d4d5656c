package minhash

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

func randomMatrix(rng *hashing.SplitMix64, rows, cols int, density float64) *matrix.Matrix {
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				b.Set(r, c)
			}
		}
	}
	return b.Build()
}

func computeOn(t *testing.T, m *matrix.Matrix, k int, seed uint64) *Signatures {
	t.Helper()
	sig, err := Compute(m.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func TestCompressedSignatureRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	m := randomMatrix(rng, 500, 60, 0.05)
	const k, seed = 24, 99
	sig := computeOn(t, m, k, seed)
	var raw, comp bytes.Buffer
	if err := sig.WriteTo(&raw, seed); err != nil {
		t.Fatal(err)
	}
	if err := sig.WriteCompressed(&comp, seed, m.NumRows()); err != nil {
		t.Fatal(err)
	}
	if comp.Len()*3 > raw.Len() {
		t.Errorf("compressed %d bytes, raw %d bytes: expected at least 3x", comp.Len(), raw.Len())
	}
	got, gotSeed, err := ReadSignatures(&comp)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeed != seed || got.K != sig.K || got.M != sig.M {
		t.Fatalf("header k=%d m=%d seed=%d", got.K, got.M, gotSeed)
	}
	for i := range sig.Vals {
		if got.Vals[i] != sig.Vals[i] {
			t.Fatalf("value %d: got %#x want %#x", i, got.Vals[i], sig.Vals[i])
		}
	}
}

// TestCompressedSignatureEmptyColumns pins the Empty sentinel: columns
// with no rows survive the functional encoding.
func TestCompressedSignatureEmptyColumns(t *testing.T) {
	m := testutil.Must(matrix.New(10, [][]int32{{1, 3}, {}, {0, 9}, {}}))
	sig := computeOn(t, m, 5, 7)
	var buf bytes.Buffer
	if err := sig.WriteCompressed(&buf, 7, m.NumRows()); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSignatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < sig.K; l++ {
		for _, c := range []int{1, 3} {
			if got.Vals[l*got.M+c] != Empty {
				t.Fatalf("empty column %d decoded non-sentinel %#x", c, got.Vals[l*got.M+c])
			}
		}
	}
	for i := range sig.Vals {
		if got.Vals[i] != sig.Vals[i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

// TestWriteCompressedRejectsForeignValues: values not derivable from
// (seed, rows) must be rejected, not silently mis-encoded.
func TestWriteCompressedRejectsForeignValues(t *testing.T) {
	m := testutil.Must(matrix.New(6, [][]int32{{0, 2}, {1}}))
	sig := computeOn(t, m, 3, 5)
	sig.Vals[1] ^= 0xdeadbeef
	var buf bytes.Buffer
	err := sig.WriteCompressed(&buf, 5, m.NumRows())
	if err == nil || !strings.Contains(err.Error(), "not h_") {
		t.Fatalf("foreign value accepted: %v", err)
	}
	// Wrong seed breaks derivability the same way.
	sig = computeOn(t, m, 3, 5)
	if err := sig.WriteCompressed(&buf, 6, m.NumRows()); err == nil {
		t.Fatal("foreign seed accepted")
	}
}

// amc1 builds a compressed-signature header with the given dimensions
// and body bytes, for hostile-input cases.
func amc1(k, m, rows, seed uint64, body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(sigCompressedMagic)
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], k)
	binary.LittleEndian.PutUint64(hdr[8:], m)
	binary.LittleEndian.PutUint64(hdr[16:], rows)
	binary.LittleEndian.PutUint64(hdr[24:], seed)
	buf.Write(hdr[:])
	buf.Write(body)
	return buf.Bytes()
}

func TestReadCompressedSignaturesErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"truncated header", []byte("AMC1"), "reading header"},
		{"zero k", amc1(0, 1, 1, 0, nil), "implausible dimensions"},
		{"huge rows", amc1(1, 1, 1<<40, 0, nil), "implausible dimensions"},
		{"huge k", amc1(1<<30, 1, 1, 0, nil), "implausible dimensions"},
		{"too many values", amc1(1<<20, 1<<31, 1, 0, nil), "too large"},
		// rows = 0 means zero bits per value: a tiny header must not be
		// able to claim a multi-gigabyte all-empty matrix.
		{"empty-dataset alloc bomb", amc1(1<<17, 1<<17, 0, 0, nil), "empty dataset"},
		{"truncated values", amc1(2, 3, 5, 1, []byte{0x00}), "reading value"},
		// rows=2 -> width 2; a single byte 0x03 decodes id 3 > rows.
		{"row id out of range", amc1(1, 1, 2, 1, []byte{0x03}), "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadSignatures(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzCompressedSignatures: any input must parse or error — never
// panic, never allocate near the header's claimed k·m before input
// bytes back it up — and whatever parses must round-trip through the
// raw codec bit-identically (the compressed reader rebuilds exact
// 64-bit values).
func FuzzCompressedSignatures(f *testing.F) {
	m := testutil.Must(matrix.New(40, [][]int32{{0, 3, 17}, {}, {5}, {0, 1, 2, 3}}))
	sig, err := Compute(m.Stream(), 6, 42)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := sig.WriteCompressed(&seed, 42, m.NumRows()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, cut := range []int{4, 20, 36, seed.Len() - 1} {
		if cut < seed.Len() {
			f.Add(seed.Bytes()[:cut])
		}
	}
	f.Add([]byte("AMC1"))
	f.Add(amc1(1<<17, 1<<17, 0, 0, nil))
	f.Add(amc1(2, 2, 1<<30, 7, []byte{0xff, 0xff, 0xff}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, sd, err := ReadSignatures(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(got.Vals) != got.K*got.M {
			t.Fatalf("parsed %d values for k=%d m=%d", len(got.Vals), got.K, got.M)
		}
		var out bytes.Buffer
		if err := got.WriteTo(&out, sd); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		got2, sd2, err := ReadSignatures(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if sd2 != sd || got2.K != got.K || got2.M != got.M {
			t.Fatal("round trip changed header")
		}
		for i := range got.Vals {
			if got2.Vals[i] != got.Vals[i] {
				t.Fatalf("value %d changed in round trip", i)
			}
		}
	})
}
