package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"

	"assocmine/internal/bitpack"
)

// The ".carows" compressed row-streaming format. Like ".arows" it is
// row-major and one-pass, but gaps between consecutive column indices
// are Golomb-Rice coded instead of varint coded, with a per-row
// parameter chosen by exact cost search, so sparse rows pay close to
// the gap entropy (a few bits per posting) instead of at least a byte.
// Rows whose postings are dense enough that even Rice coding loses to
// one bit per column fall back to a literal row bitmap. Every row is
// byte-aligned, so decode errors carry exact byte offsets and a
// corrupt row cannot desynchronise more than the current pass.
//
// Layout:
//
//	"CRW1"  uvarint rows  uvarint cols
//	per row, byte aligned:
//	  uvarint h            h == 0: empty row (no payload)
//	                       else count = h>>6, mode = (h>>5)&1, k = h&31
//	  mode 0: Rice(k) bitstream — first column index absolute, then
//	          gap-1 per subsequent index; padded to the byte boundary
//	  mode 1: ceil(cols/8) literal bitmap bytes, LSB-first; exactly
//	          count bits set, none at or beyond cols (k must be 0)
const rowCompressedMagic = "CRW1"

// uvarintLen returns the encoded size of v in bytes under
// binary.PutUvarint — the ".arows" cost of the same value, which the
// compressed scans account as logical bytes.
func uvarintLen(v uint64) int64 {
	return int64((bits.Len64(v|1) + 6) / 7)
}

// WriteRowCompressed writes src in the ".carows" compressed streaming
// format. One pass over src.
func WriteRowCompressed(w io.Writer, src RowSource) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(rowCompressedMagic); err != nil {
		return err
	}
	var vbuf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(vbuf[:], v)
		_, err := bw.Write(vbuf[:n])
		return err
	}
	if err := writeUvarint(uint64(src.NumRows())); err != nil {
		return err
	}
	cols := src.NumCols()
	if err := writeUvarint(uint64(cols)); err != nil {
		return err
	}
	bitmapBytes := uint64((cols + 7) / 8)
	var vals []uint64
	var bitmap []byte
	pw := bitpack.NewWriter(bw)
	err := src.Scan(func(row int, rcols []int32) error {
		if len(rcols) == 0 {
			return writeUvarint(0)
		}
		vals = vals[:0]
		prev := int32(-1)
		for _, c := range rcols {
			// Gaps between sorted distinct indices are >= 1, so encode
			// gap-1; with prev starting at -1 the first value is the
			// absolute index, matching the decoder.
			vals = append(vals, uint64(c-prev)-1)
			prev = c
		}
		k, riceBits := bitpack.BestRiceK(vals)
		if k > 31 {
			// Unreachable while column ids fit in int32; see BestRiceK.
			return fmt.Errorf("matrix: rice parameter %d overflows row header", k)
		}
		h := uint64(len(rcols))<<6 | uint64(k)
		if bitmapBytes < (riceBits+7)/8 {
			h = uint64(len(rcols))<<6 | 1<<5
			if err := writeUvarint(h); err != nil {
				return err
			}
			if uint64(len(bitmap)) < bitmapBytes {
				bitmap = make([]byte, bitmapBytes)
			}
			b := bitmap[:bitmapBytes]
			for i := range b {
				b[i] = 0
			}
			for _, c := range rcols {
				b[c>>3] |= 1 << (uint(c) & 7)
			}
			_, err := bw.Write(b)
			return err
		}
		if err := writeUvarint(h); err != nil {
			return err
		}
		for _, v := range vals {
			pw.WriteRice(v, k)
		}
		return pw.Flush() // byte-align the row
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SaveRowCompressed writes src to path in the ".carows" compressed
// streaming format.
func SaveRowCompressed(path string, src RowSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteRowCompressed(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// compressedRowDecoder walks the rows of a ".carows" stream behind the
// header. It validates as strictly as the ".arows" decoder — counts
// within the column bound, strictly increasing in-range indices,
// canonical headers — and accounts the logical (".arows"-equivalent)
// byte cost of what it decodes, so compression ratios compare like with
// like.
type compressedRowDecoder struct {
	tr      *trackedReader
	cols    int
	pr      *bitpack.Reader
	bitmap  []byte
	logical int64
}

// newCompressedRowDecoder starts the logical byte count at the ".arows"
// header cost — magic plus the two dimension varints — so a full pass
// totals what an uncompressed scan would have read.
func newCompressedRowDecoder(tr *trackedReader, rows, cols int) *compressedRowDecoder {
	return &compressedRowDecoder{
		tr: tr, cols: cols, pr: bitpack.NewReader(tr),
		logical: int64(len(rowBinaryMagic)) + uvarintLen(uint64(rows)) + uvarintLen(uint64(cols)),
	}
}

// rowHeader reads a row's header varint: its posting count (0 for an
// empty row, which has no payload), whether the payload is a literal
// bitmap, and the Rice parameter otherwise.
func (d *compressedRowDecoder) rowHeader(row int) (count uint64, bitmap bool, k uint, err error) {
	h, err := binary.ReadUvarint(d.tr)
	if err != nil {
		return 0, false, 0, fmt.Errorf("row %d header: %w", row, err)
	}
	if h == 0 {
		return 0, false, 0, nil
	}
	count, bitmap, k = h>>6, (h>>5)&1 == 1, uint(h&31)
	if count == 0 || count > uint64(d.cols) {
		return 0, false, 0, fmt.Errorf("row %d count %d out of range", row, count)
	}
	if bitmap && k != 0 {
		return 0, false, 0, fmt.Errorf("row %d bitmap header has rice parameter %d", row, k)
	}
	return count, bitmap, k, nil
}

// skip implements rowDecoder: bitmap rows are discarded wholesale, Rice
// rows are walked code by code without range checks. The header shape,
// count bound and byte alignment are still enforced.
func (d *compressedRowDecoder) skip(row int) error {
	count, bitmap, k, err := d.rowHeader(row)
	if err != nil || count == 0 {
		return err
	}
	if bitmap {
		if err := d.tr.discard(int64((d.cols + 7) / 8)); err != nil {
			return fmt.Errorf("row %d bitmap: %w", row, err)
		}
		return nil
	}
	for i := uint64(0); i < count; i++ {
		if _, err := d.pr.ReadRice(k); err != nil {
			return fmt.Errorf("row %d entry %d: %w", row, i, err)
		}
	}
	d.pr.Align() // rows are byte-aligned
	return nil
}

// next implements rowDecoder.
func (d *compressedRowDecoder) next(row int, buf []int32) ([]int32, error) {
	count, bitmap, k, err := d.rowHeader(row)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		d.logical++ // the ".arows" zero-length varint
		return buf, nil
	}
	d.logical += uvarintLen(count)
	// last is the previous posting (0 before the first): the ".arows"
	// cost of a posting is the varint of its distance from last.
	last := int64(0)
	if !bitmap {
		for i := uint64(0); i < count; i++ {
			gap, err := d.pr.ReadRice(k)
			if err != nil {
				return nil, fmt.Errorf("row %d entry %d: %w", row, i, err)
			}
			v := last + int64(gap)
			if i > 0 {
				v++ // gaps between distinct sorted indices are stored less one
			}
			if gap > uint64(d.cols) || v >= int64(d.cols) {
				return nil, fmt.Errorf("row %d entry %d out of range", row, i)
			}
			d.logical += uvarintLen(uint64(v - last))
			last = v
			buf = append(buf, int32(v))
		}
		d.pr.Align() // rows are byte-aligned
		return buf, nil
	}
	// Decode the ceil(cols/8)-byte bitmap in bounded chunks: the
	// header's column count must never size an allocation (hostile
	// headers could claim 2^31 columns from a 10-byte file).
	if d.bitmap == nil {
		d.bitmap = make([]byte, 1<<12)
	}
	n := (d.cols + 7) / 8
	for off := 0; off < n; off += len(d.bitmap) {
		b := d.bitmap[:min(n-off, len(d.bitmap))]
		if _, err := io.ReadFull(d.tr, b); err != nil {
			return nil, fmt.Errorf("row %d bitmap: %w", row, err)
		}
		for i, by := range b {
			for m := by; m != 0; m &= m - 1 {
				c := int64(off+i)<<3 + int64(bits.TrailingZeros8(m))
				if c >= int64(d.cols) {
					return nil, fmt.Errorf("row %d bitmap bit %d out of range", row, c)
				}
				d.logical += uvarintLen(uint64(c - last))
				last = c
				buf = append(buf, int32(c))
			}
		}
	}
	if seen := uint64(len(buf)); seen != count {
		return nil, fmt.Errorf("row %d bitmap has %d bits, header says %d", row, seen, count)
	}
	return buf, nil
}
