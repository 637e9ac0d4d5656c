package bitpack

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestWriteReadBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		v     uint64
		width uint
	}
	var recs []rec
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		width := uint(rng.Intn(56) + 1)
		v := rng.Uint64() & ((1 << width) - 1)
		recs = append(recs, rec{v, width})
		bw.writeBits(v, width)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewReader(bufio.NewReader(&buf))
	for i, r := range recs {
		got, err := br.readBits(r.width)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != r.v {
			t.Fatalf("value %d: got %d, want %d (width %d)", i, got, r.v, r.width)
		}
	}
}

func TestRiceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []uint{0, 1, 3, 7, 13, 31, MaxRiceK} {
		var vals []uint64
		for i := 0; i < 2000; i++ {
			// Mixture of small (typical) and occasional large values, so
			// both the unary and the binary halves get exercised.
			v := uint64(rng.Intn(10))
			if rng.Intn(20) == 0 {
				v = uint64(rng.Intn(1 << 16))
			}
			vals = append(vals, v)
		}
		var buf bytes.Buffer
		bw := NewWriter(&buf)
		for _, v := range vals {
			bw.WriteRice(v, k)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		br := NewReader(bufio.NewReader(&buf))
		for i, v := range vals {
			got, err := br.ReadRice(k)
			if err != nil {
				t.Fatalf("k=%d value %d: %v", k, i, err)
			}
			if got != v {
				t.Fatalf("k=%d value %d: got %d, want %d", k, i, got, v)
			}
		}
	}
}

func TestRiceLargeQuotient(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	bw.WriteRice(1000, 0) // 1000 one bits: crosses many 32-bit chunks
	bw.WriteRice(5, 2)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewReader(bufio.NewReader(&buf))
	if v, err := br.ReadRice(0); err != nil || v != 1000 {
		t.Fatalf("got %d, %v; want 1000", v, err)
	}
	if v, err := br.ReadRice(2); err != nil || v != 5 {
		t.Fatalf("got %d, %v; want 5", v, err)
	}
}

func TestReadRiceHostileUnary(t *testing.T) {
	// An endless stream of 1-bits must error out, not spin.
	br := NewReader(ones{})
	if _, err := br.ReadRice(0); err == nil {
		t.Fatal("expected unary-run error on all-ones input")
	}
}

// ones is an endless window of 1-bits.
type ones struct{}

var onesWindow = bytes.Repeat([]byte{0xff}, 4096)

func (ones) Buffered() int              { return len(onesWindow) }
func (ones) Peek(n int) ([]byte, error) { return onesWindow[:n], nil }
func (ones) Discard(n int) (int, error) { return n, nil }

func TestAlignResyncs(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	bw.writeBits(0b101, 3)
	if err := bw.Flush(); err != nil { // pads to one byte
		t.Fatal(err)
	}
	bw2 := NewWriter(&buf)
	bw2.writeBits(0x5a, 8)
	if err := bw2.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewReader(bufio.NewReader(&buf))
	if v, _ := br.readBits(3); v != 0b101 {
		t.Fatalf("got %b", v)
	}
	br.Align()
	if v, err := br.readBits(8); err != nil || v != 0x5a {
		t.Fatalf("after align: got %x, %v", v, err)
	}
}

func TestBestRiceK(t *testing.T) {
	// All zeros: k=0 is optimal (1 bit per value).
	if k, bits := BestRiceK([]uint64{0, 0, 0, 0}); k != 0 || bits != 4 {
		t.Fatalf("zeros: k=%d bits=%d", k, bits)
	}
	// Values near 2^6: the best k is near 6, and the reported size must
	// match an actual encode.
	vals := []uint64{60, 70, 55, 64, 71, 63, 58, 66}
	k, bits := BestRiceK(vals)
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	for _, v := range vals {
		bw.WriteRice(v, k)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := uint64(buf.Len()); got != (bits+7)/8 {
		t.Fatalf("encoded %d bytes, cost formula says %d bits", got, bits)
	}
	// No other k does better.
	for other := uint(0); other <= MaxRiceK; other++ {
		total := uint64(0)
		for _, v := range vals {
			total += riceCost(v, other)
		}
		if total < bits {
			t.Fatalf("k=%d costs %d bits, BestRiceK said %d bits at k=%d", other, total, bits, k)
		}
	}
}

// TestRiceEncoderRefusesUndecodable: WriteRice fails, rather than
// writing a stream ReadRice rejects, for a quotient above maxUnary or a
// k above MaxRiceK; and BestRiceK, whose
// cost sum saturates, picks a k under which extreme values round-trip.
func TestRiceEncoderRefusesUndecodable(t *testing.T) {
	for _, c := range []struct {
		v uint64
		k uint
	}{{maxUnary + 1, 0}, {1 << 40, 13}, {1, MaxRiceK + 1}} {
		bw := NewWriter(&bytes.Buffer{})
		bw.WriteRice(c.v, c.k)
		bw.WriteRice(0, 0) // the error is sticky: later writes do nothing
		if err := bw.Flush(); err == nil {
			t.Errorf("WriteRice(%d, %d) flushed without error", c.v, c.k)
		}
	}
	vals := []uint64{math.MaxUint64, 0}
	k, bits := BestRiceK(vals)
	for _, v := range vals {
		if v>>k > maxUnary {
			t.Fatalf("BestRiceK chose k=%d: %d has quotient %d", k, v, v>>k)
		}
	}
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	for _, v := range vals {
		bw.WriteRice(v, k)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := uint64(buf.Len()); got != (bits+7)/8 {
		t.Fatalf("encoded %d bytes, cost formula says %d bits", got, bits)
	}
	br := NewReader(bufio.NewReader(&buf))
	for i, v := range vals {
		if got, err := br.ReadRice(k); err != nil || got != v {
			t.Fatalf("value %d: got %d, %v; want %d", i, got, err, v)
		}
	}
}
