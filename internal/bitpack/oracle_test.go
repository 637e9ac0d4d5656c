package bitpack

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// byteReader is the byte-at-a-time bit reader the word-at-a-time Reader
// replaced, kept as its oracle: it pulls one byte through ReadByte
// whenever it runs out of bits, so the bytes it has consumed are always
// exactly the ones holding a decoded bit.
type byteReader struct {
	r   io.ByteReader
	acc uint64
	n   uint
}

func (br *byteReader) readBits(width uint) (uint64, error) {
	if width > 56 {
		return 0, fmt.Errorf("bitpack: width %d out of range", width)
	}
	for br.n < width {
		b, err := br.r.ReadByte()
		if err != nil {
			return 0, err
		}
		br.acc |= uint64(b) << br.n
		br.n += 8
	}
	v := br.acc & ((1 << width) - 1)
	br.acc >>= width
	br.n -= width
	return v, nil
}

func (br *byteReader) ReadRice(k uint) (uint64, error) {
	q := uint64(0)
	for {
		if br.n == 0 {
			b, err := br.r.ReadByte()
			if err != nil {
				return 0, err
			}
			br.acc = uint64(b)
			br.n = 8
		}
		ones := uint(bits.TrailingZeros64(^br.acc))
		if ones < br.n {
			q += uint64(ones)
			br.acc >>= ones + 1
			br.n -= ones + 1
			break
		}
		q += uint64(br.n)
		br.acc, br.n = 0, 0
		if q > maxUnary {
			return 0, fmt.Errorf("bitpack: unary run exceeds %d", maxUnary)
		}
	}
	if k == 0 {
		return q, nil
	}
	low, err := br.readBits(k)
	if err != nil {
		return 0, err
	}
	return q<<k | low, nil
}

func (br *byteReader) Align() { br.acc, br.n = 0, 0 }

// consumed is how far a reader has taken r, a bufio.Reader over data.
func consumed(data []byte, src *bytes.Reader, r *bufio.Reader) int {
	return len(data) - src.Len() - r.Buffered()
}

// diffReaders runs one op program against the Reader and the oracle over
// the same bytes and fails at the first value, error or consumed-byte
// count that differs. Op bytes: 0-3 ReadRice with k from the next byte,
// 4 readBits, 5 Align. Consumption is compared after Align and after an
// error, where the Reader has settled with its source.
func diffReaders(t *testing.T, data, ops []byte, window int) {
	t.Helper()
	srcA, srcB := bytes.NewReader(data), bytes.NewReader(data)
	bufA, bufB := bufio.NewReaderSize(srcA, window), bufio.NewReaderSize(srcB, window)
	got, want := NewReader(bufA), &byteReader{r: bufB}
	for i := 0; i+1 < len(ops); i += 2 {
		var gv, wv uint64
		var gerr, werr error
		arg := uint(ops[i+1])
		switch op := ops[i] % 6; {
		case op < 4:
			gv, gerr = got.ReadRice(arg % (MaxRiceK + 1))
			wv, werr = want.ReadRice(arg % (MaxRiceK + 1))
		case op == 4:
			gv, gerr = got.readBits(arg % 60)
			wv, werr = want.readBits(arg % 60)
		default:
			got.Align()
			want.Align()
			if g, w := consumed(data, srcA, bufA), consumed(data, srcB, bufB); g != w {
				t.Fatalf("op %d: Align left %d bytes consumed, oracle %d", i/2, g, w)
			}
			continue
		}
		if gv != wv || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("op %d: got %d, %v; oracle %d, %v", i/2, gv, gerr, wv, werr)
		}
		if gerr != nil {
			got.Align()
			if g, w := consumed(data, srcA, bufA), consumed(data, srcB, bufB); g != w {
				t.Fatalf("op %d: error left %d bytes consumed, oracle %d", i/2, g, w)
			}
			return
		}
	}
}

// TestReaderMatchesByteOracle drives random op programs over random
// streams, some all ones, through the smallest and a large bufio window.
func TestReaderMatchesByteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		if trial%7 == 0 {
			for i := range data {
				data[i] |= byte(rng.Intn(256)) | 0xf0
			}
		}
		ops := make([]byte, 2*rng.Intn(200))
		rng.Read(ops)
		for _, window := range []int{16, 4096} {
			diffReaders(t, data, ops, window)
		}
	}
}

// TestReaderUnaryLimitOffset: a unary run past the limit fails after
// consuming exactly the bytes the byte-at-a-time oracle did, whether the
// code starts on a byte boundary or inside a byte.
func TestReaderUnaryLimitOffset(t *testing.T) {
	data := bytes.Repeat([]byte{0xff}, maxUnary/8+64)
	for _, start := range []uint{0, 5} {
		ops := []byte{4, byte(start), 0, 0, 5, 0}
		diffReaders(t, data, ops, 1<<16)
	}
}
