// Package bitpack provides the bit-granular encoding layer shared by
// the compressed on-disk codecs (the ".carows" matrix format and the
// compressed spill runs of budgeted verification): an LSB-first bit
// writer/reader pair and Golomb-Rice coding for small non-negative
// integers.
//
// Bits are packed LSB-first within each byte — the first bit written
// is bit 0 of the first byte — so a value written with writeBits(v, w)
// occupies w consecutive bits and reads back with readBits(w). Rice
// coding splits v into a quotient q = v>>k (written in unary: q one
// bits then a zero) and the k low bits of v; for geometrically
// distributed values with mean near 2^k it approaches the entropy,
// while varints cost a full byte per value however small.
package bitpack

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// MaxRiceK bounds the Rice parameter: 2^40 exceeds every quantity the
// codecs delta-encode (row ids, column ids, counter values), so any
// larger parameter in a header is corruption.
const MaxRiceK = 40

// maxUnary bounds the unary quotient of a Rice code: the decoder
// consumes no longer run, so a hostile stream of 1-bits cannot spin it,
// and the encoder refuses to write one.
const maxUnary = 1 << 26

// Writer packs bits LSB-first into an io.Writer. Errors are sticky:
// the first write error is returned by every subsequent call and by
// Flush.
type Writer struct {
	w   io.Writer
	bw  io.ByteWriter // w again, when it writes bytes without a slice
	acc uint64
	n   uint // bits pending in acc, < 8 between calls
	buf [1]byte
	err error
}

// NewWriter returns a Writer emitting to w. The caller must Flush
// before reading back or switching to byte-level writes.
func NewWriter(w io.Writer) *Writer {
	nw := &Writer{w: w}
	nw.bw, _ = w.(io.ByteWriter)
	return nw
}

// writeByte emits one packed byte, preferring the ByteWriter fast path
// (bufio.Writer and bytes.Buffer) over a one-byte slice Write.
func (bw *Writer) writeByte(b byte) error {
	if bw.bw != nil {
		return bw.bw.WriteByte(b)
	}
	bw.buf[0] = b
	_, err := bw.w.Write(bw.buf[:])
	return err
}

// writeBits appends the width low bits of v, LSB first. width must be
// <= 56 so the accumulator never overflows mid-call.
func (bw *Writer) writeBits(v uint64, width uint) {
	if bw.err != nil {
		return
	}
	if width > 56 {
		bw.err = fmt.Errorf("bitpack: width %d out of range", width)
		return
	}
	bw.acc |= (v & ((1 << width) - 1)) << bw.n
	bw.n += width
	for bw.n >= 8 {
		if err := bw.writeByte(byte(bw.acc)); err != nil {
			bw.err = err
			return
		}
		bw.acc >>= 8
		bw.n -= 8
	}
}

// WriteRice appends v in Rice coding with parameter k: v>>k one bits,
// a zero bit, then the k low bits of v. A k above MaxRiceK or a quotient
// above what ReadRice accepts sets the sticky error instead.
func (bw *Writer) WriteRice(v uint64, k uint) {
	if bw.err != nil {
		return
	}
	q := v >> k
	if k > MaxRiceK || q > maxUnary {
		bw.err = fmt.Errorf("bitpack: Rice code of %d with k=%d is not decodable", v, k)
		return
	}
	for q >= 32 {
		bw.writeBits((1<<32)-1, 32)
		q -= 32
	}
	// q one bits followed by the terminating zero.
	bw.writeBits((1<<q)-1, uint(q)+1)
	if k > 0 {
		bw.writeBits(v, k)
	}
}

// Flush pads the pending bits with zeros up to the next byte boundary
// and writes them out, returning the first error the writer hit.
func (bw *Writer) Flush() error {
	if bw.err == nil && bw.n > 0 {
		if err := bw.writeByte(byte(bw.acc)); err != nil {
			bw.err = err
		}
		bw.acc, bw.n = 0, 0
	}
	return bw.err
}

// ByteSource is the reader side's byte supply: a buffered stream whose
// window the Reader borrows whole words from. *bufio.Reader and the
// offset-tracked readers of the file-backed scans implement it. The
// Reader only ever peeks at bytes the source already holds, or at one
// byte to make it refill, so a read error is reported exactly once, by
// the read that hits it.
type ByteSource interface {
	Buffered() int
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// Reader unpacks bits LSB-first from a ByteSource. It loads up to eight
// bytes at a time straight from the source's window, and consumes them
// from the source only when Align hands back the whole bytes it did not
// use, or when the window runs dry and must be refilled. So between
// Aligns the source must not be read by anyone else; after Align it is
// positioned exactly behind the last byte any decoded bit came from.
type Reader struct {
	r   ByteSource
	win []byte // the source's window; win[:pos] is loaded into acc
	pos int
	acc uint64 // loaded bits, LSB first; bits at and above n are scratch
	n   uint   // valid bits in acc
}

// NewReader returns a Reader consuming from r.
func NewReader(r ByteSource) *Reader {
	return &Reader{r: r}
}

// Reset rebinds the reader to a new source, dropping buffered bits.
func (br *Reader) Reset(r ByteSource) {
	*br = Reader{r: r}
}

// fill loads whole bytes into acc: seven or eight at once while the
// window holds a full word, one at a time from its last few bytes, and
// when it is empty it consumes the window from the source and peeks one
// byte to make the source refill. A refill error drops the loaded bits,
// leaving every byte they came from consumed.
func (br *Reader) fill() error {
	if br.pos+8 <= len(br.win) {
		// The bits above the new n come from the bytes that follow:
		// loading those bytes again later ORs the same bits in.
		br.acc |= binary.LittleEndian.Uint64(br.win[br.pos:]) << br.n
		adv := (63 - br.n) >> 3
		br.pos += int(adv)
		br.n += adv << 3
		return nil
	}
	if br.pos == len(br.win) {
		br.r.Discard(br.pos)
		br.win, br.pos = nil, 0
		if _, err := br.r.Peek(1); err != nil {
			br.acc, br.n = 0, 0
			return err
		}
		br.win, _ = br.r.Peek(br.r.Buffered())
		if len(br.win) >= 8 {
			return br.fill()
		}
	}
	for br.n <= 56 && br.pos < len(br.win) {
		br.acc |= uint64(br.win[br.pos]) << br.n
		br.pos++
		br.n += 8
	}
	return nil
}

// readBits returns the next width bits, LSB first. width must be <= 56.
func (br *Reader) readBits(width uint) (uint64, error) {
	if width > 56 {
		return 0, fmt.Errorf("bitpack: width %d out of range", width)
	}
	for br.n < width {
		if err := br.fill(); err != nil {
			return 0, err
		}
	}
	v := br.acc & ((1 << width) - 1)
	br.acc >>= width
	br.n -= width
	return v, nil
}

// ReadRice decodes one Rice-coded value with parameter k.
func (br *Reader) ReadRice(k uint) (uint64, error) {
	// Top the bits up to 56 or more from the window, without a branch
	// on how many are left. Then the quotient is the run of one bits up
	// to the first zero, and when the loaded bits hold the whole code it
	// is decoded in place.
	if br.pos+8 <= len(br.win) {
		br.acc |= binary.LittleEndian.Uint64(br.win[br.pos:]) << br.n
		adv := (63 - br.n) >> 3
		br.pos += int(adv)
		br.n += adv << 3
	}
	ones := uint(bits.TrailingZeros64(^br.acc))
	if w := ones + 1 + k; w <= br.n {
		v := uint64(ones)<<k | br.acc>>(ones+1)&(1<<k-1)
		br.acc >>= w
		br.n -= w
		return v, nil
	}
	return br.readRice(k)
}

// readRice is ReadRice for a code the loaded bits do not hold: it counts
// the quotient's ones a load at a time, refilling the window as it runs
// dry.
func (br *Reader) readRice(k uint) (uint64, error) {
	q := uint64(0)
	for {
		if br.n == 0 {
			if err := br.fill(); err != nil {
				return 0, err
			}
		}
		ones := uint(bits.TrailingZeros64(^br.acc))
		if ones < br.n {
			q += uint64(ones)
			br.acc >>= ones + 1
			br.n -= ones + 1
			break
		}
		if q+uint64(br.n) > maxUnary {
			// Stop at the first byte boundary past the limit, where a
			// byte-at-a-time reader notices it, so the bytes consumed
			// (and the offset an error reports) do not depend on how
			// many bytes a load took. Boundaries sit at n, n-8, ...
			need := uint(maxUnary + 1 - q)
			b := br.n - (br.n-need)&^7
			br.acc >>= b
			br.n -= b
			return 0, fmt.Errorf("bitpack: unary run exceeds %d", maxUnary)
		}
		q += uint64(br.n)
		br.acc, br.n = 0, 0
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

// Align discards the unread bits of the current byte, hands the whole
// unread bytes back to the source and consumes the rest, so the next
// read — the Reader's or the source's own — starts at the following
// byte boundary.
func (br *Reader) Align() {
	br.pos -= int(br.n >> 3)
	br.r.Discard(br.pos)
	br.win, br.pos, br.acc, br.n = nil, 0, 0, 0
}

// riceCost returns the encoded size, in bits, of v under parameter k,
// saturating at math.MaxUint64.
func riceCost(v uint64, k uint) uint64 {
	return addSat(v>>k, 1+uint64(k))
}

// addSat is a+b, or math.MaxUint64 when the sum wraps.
func addSat(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

// BestRiceK returns the parameter in [0, MaxRiceK] minimising the
// total Rice-coded size of vals, together with that size in bits (a sum
// that saturates, so a huge value never makes a small k look cheap).
// Deterministic: the smallest optimal k wins ties.
func BestRiceK(vals []uint64) (uint, uint64) {
	bestK, bestBits := uint(0), uint64(0)
	for k := uint(0); k <= MaxRiceK; k++ {
		bits := uint64(0)
		for _, v := range vals {
			bits = addSat(bits, riceCost(v, k))
		}
		if k == 0 || bits < bestBits {
			bestK, bestBits = k, bits
		}
		// Costs are convex in k once the unary term stops dominating;
		// past the point where every quotient is 0 the cost only grows.
		if bits == uint64(len(vals))*(uint64(k)+1) {
			break
		}
	}
	return bestK, bestBits
}
