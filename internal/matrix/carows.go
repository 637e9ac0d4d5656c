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
// The format also admits a literal row bitmap (mode 1), which the
// decoder reads but the writer never emits: Rice at k = 0 already costs
// no more than one bit per column (see writeRowCompressed). Every row
// is byte-aligned, so decode errors carry exact byte offsets and a
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

// writeRowCompressed writes src in the ".carows" compressed streaming
// format. One pass over src.
func writeRowCompressed(w io.Writer, src RowSource) error {
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
	var vals []uint64
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
		// Rice never loses to the literal bitmap: at k = 0 a gap-1 value v
		// costs v+1 bits, and the row's values sum to c_last+1-count, so
		// the k = 0 stream is c_last+1 <= cols bits — never more bytes
		// than the ceil(cols/8) of a bitmap — and BestRiceK only improves
		// on it. So every row is written in mode 0.
		k, _ := bitpack.BestRiceK(vals)
		if k > 31 {
			// Unreachable while column ids fit in int32; see BestRiceK.
			return fmt.Errorf("matrix: rice parameter %d overflows row header", k)
		}
		if err := writeUvarint(uint64(len(rcols))<<6 | uint64(k)); err != nil {
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
	err = writeRowCompressed(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// compressedRowDecoder walks the rows of a ".carows" stream behind the
// header. It validates as strictly as the ".arows" decoder — counts
// within the column bound, strictly increasing in-range indices,
// canonical headers.
type compressedRowDecoder struct {
	tr     *trackedReader
	cols   int
	pr     *bitpack.Reader
	bitmap []byte
}

// rowHeader reads a row's header varint: its posting count (0 for an
// empty row, which has no payload), whether the payload is a literal
// bitmap, and the Rice parameter otherwise.
func (d *compressedRowDecoder) rowHeader(row int) (count uint64, bitmap bool, k uint, err error) {
	w := d.tr.window()
	h, err := w.uvarint()
	w.commit()
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
	defer d.pr.Align() // rows are byte-aligned
	for i := uint64(0); i < count; i++ {
		if _, err := d.pr.ReadRice(k); err != nil {
			return fmt.Errorf("row %d entry %d: %w", row, i, err)
		}
	}
	return nil
}

// next implements rowDecoder.
func (d *compressedRowDecoder) next(row int, buf []int32) ([]int32, error) {
	count, bitmap, k, err := d.rowHeader(row)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return buf, nil
	}
	if !bitmap {
		// Aligned on every return, so a failing row is consumed up to
		// the byte its bad code ends in.
		defer d.pr.Align() // rows are byte-aligned
		// last is the previous posting (0 before the first).
		last := int64(0)
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
			last = v
			buf = append(buf, int32(v))
		}
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
				buf = append(buf, int32(c))
			}
		}
	}
	if seen := uint64(len(buf)); seen != count {
		return nil, fmt.Errorf("row %d bitmap has %d bits, header says %d", row, seen, count)
	}
	return buf, nil
}
