package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"testing"

	"assocmine/internal/testutil"
)

// byteLoopScan is the scan the windowed decoders replaced, kept as their
// oracle: every varint of an ".arows" or ".carows" stream read byte by
// byte through io.ByteReader, every Rice code through a bit reader that
// pulls one byte whenever it runs out of bits. Header, error texts and
// FileError offsets are a FileSource's: the same path, the offset the
// decoder had consumed.
func byteLoopScan(r io.Reader, path string, fn func(row int, cols []int32)) error {
	tr := &trackedReader{br: bufio.NewReaderSize(r, 1<<16)}
	fail := func(err error) error { return &FileError{Path: path, Offset: tr.off, Err: err} }
	format := formatOf(path)
	rows, cols, err := (&FileSource{format: format}).header(tr)
	if err != nil {
		return fail(err)
	}
	next := byteLoopARows{tr, cols}.next
	if format == formatCARows {
		next = (&byteLoopCARows{tr: tr, cols: cols, bits: byteBits{r: tr}}).next
	}
	var buf []int32
	for row := 0; row < rows; row++ {
		if buf, err = next(row, buf[:0]); err != nil {
			return fail(err)
		}
		fn(row, buf)
	}
	return nil
}

// byteLoopARows is the ".arows" row loop of byteLoopScan.
type byteLoopARows struct {
	tr   *trackedReader
	cols int
}

func (d byteLoopARows) next(row int, buf []int32) ([]int32, error) {
	length, err := binary.ReadUvarint(d.tr)
	if err != nil {
		return nil, fmt.Errorf("row %d length: %w", row, err)
	}
	if length > uint64(d.cols) {
		return nil, fmt.Errorf("row %d length %d exceeds column count", row, length)
	}
	prev := int64(0)
	for i := uint64(0); i < length; i++ {
		delta, err := binary.ReadUvarint(d.tr)
		if err != nil {
			return nil, fmt.Errorf("row %d entry %d: %w", row, i, err)
		}
		if delta >= uint64(d.cols) {
			return nil, fmt.Errorf("row %d entry %d out of range", row, i)
		}
		v := prev + int64(delta)
		if v >= int64(d.cols) || (i > 0 && v <= prev) {
			return nil, fmt.Errorf("row %d entry %d out of range", row, i)
		}
		buf = append(buf, int32(v))
		prev = v
	}
	return buf, nil
}

// byteBits is the byte-at-a-time Rice reader of byteLoopCARows.
type byteBits struct {
	r   io.ByteReader
	acc uint64
	n   uint
}

func (br *byteBits) readRice(k uint) (uint64, error) {
	q := uint64(0)
	for {
		if br.n == 0 {
			b, err := br.r.ReadByte()
			if err != nil {
				return 0, err
			}
			br.acc, br.n = uint64(b), 8
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
		if q > 1<<26 {
			return 0, fmt.Errorf("bitpack: unary run exceeds %d", 1<<26)
		}
	}
	for br.n < k {
		b, err := br.r.ReadByte()
		if err != nil {
			return 0, err
		}
		br.acc |= uint64(b) << br.n
		br.n += 8
	}
	low := br.acc & (1<<k - 1)
	br.acc >>= k
	br.n -= k
	return q<<k | low, nil
}

// byteLoopCARows is the ".carows" row loop of byteLoopScan.
type byteLoopCARows struct {
	tr   *trackedReader
	cols int
	bits byteBits
}

func (d *byteLoopCARows) next(row int, buf []int32) ([]int32, error) {
	h, err := binary.ReadUvarint(d.tr)
	if err != nil {
		return nil, fmt.Errorf("row %d header: %w", row, err)
	}
	if h == 0 {
		return buf, nil
	}
	count, bitmap, k := h>>6, (h>>5)&1 == 1, uint(h&31)
	if count == 0 || count > uint64(d.cols) {
		return nil, fmt.Errorf("row %d count %d out of range", row, count)
	}
	if bitmap && k != 0 {
		return nil, fmt.Errorf("row %d bitmap header has rice parameter %d", row, k)
	}
	last := int64(0)
	if !bitmap {
		for i := uint64(0); i < count; i++ {
			gap, err := d.bits.readRice(k)
			if err != nil {
				return nil, fmt.Errorf("row %d entry %d: %w", row, i, err)
			}
			v := last + int64(gap)
			if i > 0 {
				v++
			}
			if gap > uint64(d.cols) || v >= int64(d.cols) {
				return nil, fmt.Errorf("row %d entry %d out of range", row, i)
			}
			last = v
			buf = append(buf, int32(v))
		}
		d.bits.acc, d.bits.n = 0, 0
		return buf, nil
	}
	b := make([]byte, (d.cols+7)/8)
	if _, err := io.ReadFull(d.tr, b); err != nil {
		return nil, fmt.Errorf("row %d bitmap: %w", row, err)
	}
	for i, by := range b {
		for m := by; m != 0; m &= m - 1 {
			c := int64(i)<<3 + int64(bits.TrailingZeros8(m))
			if c >= int64(d.cols) {
				return nil, fmt.Errorf("row %d bitmap bit %d out of range", row, c)
			}
			buf = append(buf, int32(c))
		}
	}
	if seen := uint64(len(buf)); seen != count {
		return nil, fmt.Errorf("row %d bitmap has %d bits, header says %d", row, seen, count)
	}
	return buf, nil
}

// readerFS serves every open from a fresh reader.
type readerFS func() io.Reader

func (f readerFS) Open(string) (io.ReadCloser, error) { return io.NopCloser(f()), nil }

// scanVsByteLoop opens path through fsys and scans it, scans the same
// bytes with the byte-loop oracle, and fails unless both deliver the
// same rows and end in the same error text and FileError offset.
func scanVsByteLoop(t *testing.T, fsys readerFS, path string) {
	t.Helper()
	var want, got [][]int32
	werr := byteLoopScan(fsys(), path, func(_ int, cols []int32) {
		want = append(want, append([]int32(nil), cols...))
	})
	src, gerr := OpenFileSourceFS(fsys, path)
	if gerr == nil {
		gerr = src.Scan(func(_ int, cols []int32) error {
			got = append(got, append([]int32(nil), cols...))
			return nil
		})
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("scan error %v, byte loop %v", gerr, werr)
	}
	var gfe, wfe *FileError
	if errors.As(gerr, &gfe) != errors.As(werr, &wfe) || gfe != nil && gfe.Offset != wfe.Offset {
		t.Fatalf("scan error %#v, byte loop %#v", gfe, wfe)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("scan delivered %d rows unlike the byte loop's %d", len(got), len(want))
	}
	if werr == nil && len(want) != src.NumRows() {
		t.Fatalf("byte loop delivered %d of %d rows", len(want), src.NumRows())
	}
}

// bytesFS serves data, in reads of at most chunk bytes when chunk > 0 —
// short reads move where bufio's window ends.
func bytesFS(data []byte, chunk int) readerFS {
	return func() io.Reader {
		if chunk > 0 {
			return &chunkReader{r: bytes.NewReader(data), chunk: chunk}
		}
		return bytes.NewReader(data)
	}
}

// chunkReader caps each Read at chunk bytes and, once fail is set, fails
// every read past byte at with it, persistently.
type chunkReader struct {
	r     io.Reader
	chunk int
	off   int
	at    int
	fail  error
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.fail != nil {
		if c.off >= c.at {
			return 0, c.fail
		}
		p = p[:min(len(p), c.at-c.off)]
	}
	n, err := c.r.Read(p[:min(len(p), c.chunk)])
	c.off += n
	return n, err
}

// FuzzScanVsByteLoop feeds any byte string to a FileSource as ".arows"
// or ".carows" and requires the rows, the error text and the
// FileError offset of the byte-loop oracle, through whole reads and
// through short ones; then Collect's matrix, or its error, from the
// same source must be builderCollect's.
func FuzzScanVsByteLoop(f *testing.F) {
	m := fuzzSeedMatrix()
	var arows, carows bytes.Buffer
	_ = writeRowBinary(&arows, m.Stream())
	_ = writeRowCompressed(&carows, m.Stream())
	for _, enc := range []struct {
		data []byte
		ext  bool
	}{{arows.Bytes(), false}, {carows.Bytes(), true}} {
		f.Add(enc.data, enc.ext, uint8(0))
		f.Add(enc.data, enc.ext, uint8(7))
		f.Add(enc.data[:len(enc.data)/2], enc.ext, uint8(3))
	}
	// A delta of 2^32+1, which an int32 conversion turns into 1.
	f.Add(rowBinary("ARW1", []uint64{1, 3}, []uint64{1, 1<<32 + 1}), false, uint8(0))
	// A Rice gap past the last column, its code (k = 24) ending four
	// bytes into the row: the failing row is consumed up to that byte.
	f.Add([]byte("CRW1\x01\x30\x580000"), true, uint8(0))
	// A bitmap row (mode 1, which only a hand-made file holds).
	f.Add([]byte{'C', 'R', 'W', '1', 1, 9, 2<<6 | 1<<5, 0x05, 0x01}, true, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, compressed bool, chunk uint8) {
		path := "data.arows"
		if compressed {
			path = "data.carows"
		}
		fsys := bytesFS(data, int(chunk))
		scanVsByteLoop(t, fsys, path)
		// A header may claim up to 2^31 rows and columns backed by no
		// data, and a matrix holds a list for each: past 2^16 the check
		// would test the allocator, not the loader.
		if src, err := OpenFileSourceFS(fsys, path); err == nil && src.NumRows() <= 1<<16 && src.NumCols() <= 1<<16 {
			checkCollect(t, path, src)
		}
	})
}

// windowEdgeRows returns rows whose encodings cross bufio's 64 KiB window
// many times: Zipf rows over a wide matrix, then one row of 70 000
// entries spaced 200 apart — longer than the window in either format.
func windowEdgeRows() *SliceSource {
	const cols = 14_100_000
	rows := testutil.ZipfRows(3, 6_000, cols, 12, 1.1)
	long := make([]int32, 70_000)
	for i := range long {
		long[i] = int32(200*i + 7)
	}
	rows = append(rows[:3_000], append([][]int32{long}, rows[3_000:]...)...)
	return &SliceSource{Cols: cols, Rows: rows}
}

// TestWindowEdges scans, in both formats, rows that straddle the 64 KiB
// window and a row longer than it, through whole reads and through short
// reads that end the window anywhere; then the same bytes with a
// persistent read error surfacing mid-window, at offsets inside the
// long row and elsewhere. Every scan must match the byte-loop oracle:
// the same rows, error text and offset.
func TestWindowEdges(t *testing.T) {
	src := windowEdgeRows()
	for _, ext := range []string{".arows", ".carows"} {
		var enc bytes.Buffer
		write := writeRowBinary
		if ext == ".carows" {
			write = writeRowCompressed
		}
		if err := write(&enc, src); err != nil {
			t.Fatal(err)
		}
		data := enc.Bytes()
		var got [][]int32
		err := testutil.Must(OpenFileSourceFS(bytesFS(data, 0), "data"+ext)).Scan(func(_ int, cols []int32) error {
			got = append(got, append([]int32(nil), cols...))
			return nil
		})
		if err != nil || !reflect.DeepEqual(got, src.Rows) {
			t.Fatalf("%s: scan differs from the rows written (%v)", ext, err)
		}
		for _, chunk := range []int{0, 1, 61, 4093} {
			scanVsByteLoop(t, bytesFS(data, chunk), "data"+ext)
		}
		boom := errors.New("persistent read error")
		for _, at := range []int{1 << 16, 1<<16 + 3, len(data) / 2, len(data) - 5} {
			for _, chunk := range []int{len(data), 997} {
				fsys := readerFS(func() io.Reader {
					return &chunkReader{r: bytes.NewReader(data), chunk: chunk, at: at, fail: boom}
				})
				scanVsByteLoop(t, fsys, "data"+ext)
				err := testutil.Must(OpenFileSourceFS(fsys, "data"+ext)).Scan(func(int, []int32) error { return nil })
				if !errors.Is(err, boom) {
					t.Fatalf("%s: error at byte %d surfaced as %v", ext, at, err)
				}
			}
		}
	}
}
