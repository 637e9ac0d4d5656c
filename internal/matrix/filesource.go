package matrix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"assocmine/internal/bitpack"
)

// FS abstracts the file opens a FileSource performs — the seam fault
// injection and IO-hardening tests hook into. The default
// implementation is the operating system. Implementations must serve
// the same bytes on every Open of a path for scan results to be
// meaningful.
type FS interface {
	Open(path string) (io.ReadCloser, error)
}

// osFS is the real file system, the one OpenFileSource uses.
type osFS struct{}

func (osFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

// A FileSource retries an open or read that fails transiently
// (EAGAIN/EINTR-class errors, or anything advertising Temporary() ==
// true) up to maxRetries times, backing off from retryDelay and doubling
// per retry of the same operation: cheap enough to be invisible on
// healthy disks, enough to ride out momentary glitches. Permanent
// errors — truncation, decode failures, missing files — are never
// retried.
const (
	maxRetries = 4
	retryDelay = time.Millisecond
)

// isTransient reports whether err is a transient IO error worth
// retrying: it advertises Temporary() == true, or it is
// EAGAIN/EINTR-class underneath.
func isTransient(err error) bool {
	var t interface{ Temporary() bool }
	if errors.As(err, &t) && t.Temporary() {
		return true
	}
	return errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EINTR)
}

// FileError reports a permanent failure of a file-backed scan: the
// file, the byte offset the decoder had consumed when the failure
// surfaced, and the underlying cause. Callback errors (including
// context cancellation) are never wrapped in a FileError — only
// decode and IO faults of the file itself are.
type FileError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *FileError) Error() string {
	return fmt.Sprintf("matrix: %s: byte %d: %v", e.Path, e.Offset, e.Err)
}

func (e *FileError) Unwrap() error { return e.Err }

// FileSource is a RowSource that streams rows directly from a dataset
// file, re-reading it on every Scan. It is the honest disk-resident
// setting of the paper: algorithms written against RowSource run
// unchanged with the data never materialised in memory; each phase
// costs one sequential file pass.
//
// Supported formats: the text transaction format of writeText, the
// row-major streaming binary format of writeRowBinary (".arows"), and
// the compressed row-streaming format of writeRowCompressed
// (".carows"). A file in the retired column-major AMX1 format fails by
// that name, whatever its suffix.
//
// Opens and reads that fail transiently (see isTransient) are retried
// with exponential backoff (see maxRetries); permanent
// failures surface as *FileError carrying the path and byte offset.
type FileSource struct {
	path   string
	fsys   FS
	format fileFormat
	rows   int
	cols   int

	bytesRead atomic.Int64
	retries   atomic.Int64
}

// fileFormat is the on-disk encoding a FileSource streams, detected
// from the path suffix at open time.
type fileFormat uint8

const (
	formatText   fileFormat = iota // writeText transaction lines
	formatARows                    // ".arows" varint row binary
	formatCARows                   // ".carows" Rice-compressed rows
)

// formatOf maps a path to its streaming format by suffix.
func formatOf(path string) fileFormat {
	switch {
	case strings.HasSuffix(path, ".carows"):
		return formatCARows
	case strings.HasSuffix(path, ".arows"):
		return formatARows
	}
	return formatText
}

// Path returns the file the source streams from.
func (fs *FileSource) Path() string { return fs.path }

// NumRows implements RowSource with the row count from the file header.
func (fs *FileSource) NumRows() int { return fs.rows }

// NumCols implements RowSource with the column count from the header.
func (fs *FileSource) NumCols() int { return fs.cols }

// BytesRead returns the cumulative bytes read from disk by Scan passes
// over this source. Safe for concurrent use.
func (fs *FileSource) BytesRead() int64 { return fs.bytesRead.Load() }

// IORetries returns the cumulative transient-error retries this
// source's opens and reads performed. Safe for concurrent use.
func (fs *FileSource) IORetries() int64 { return fs.retries.Load() }

// ByteCounter is implemented by sources that can report the disk bytes
// their scans have consumed — the I/O the out-of-core path accounts in
// Stats.BytesRead and the bytes_read counter.
type ByteCounter interface {
	BytesRead() int64
}

// RetryCounter is implemented by sources that can report how many
// transient-error retries their IO performed — the io_retries counter.
type RetryCounter interface {
	IORetries() int64
}

// countingReader counts bytes as they leave the underlying reader.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// retryReader retries transient read errors with bounded exponential
// backoff. It sits below the bufio layer, so a retried fault is
// invisible to the decoder: the stream position never moves on a
// failed read, and the retried read resumes exactly where the fault
// hit. Errors that survive the retry budget propagate unchanged.
type retryReader struct {
	r       io.Reader
	retries *atomic.Int64
}

func (r *retryReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	delay := retryDelay
	for attempt := 0; attempt < maxRetries && n == 0 && err != nil && isTransient(err); attempt++ {
		time.Sleep(delay)
		delay *= 2
		r.retries.Add(1)
		n, err = r.r.Read(p)
	}
	if n > 0 && err != nil && isTransient(err) {
		// Bytes plus a transient error: deliver the bytes now; the next
		// Read retries the faulting position.
		err = nil
	}
	return n, err
}

// open opens the source's file through its FS, retrying transient
// open failures.
func (fs *FileSource) open() (io.ReadCloser, error) {
	f, err := fs.fsys.Open(fs.path)
	delay := retryDelay
	for attempt := 0; attempt < maxRetries && err != nil && isTransient(err); attempt++ {
		time.Sleep(delay)
		delay *= 2
		fs.retries.Add(1)
		f, err = fs.fsys.Open(fs.path)
	}
	return f, err
}

// reader builds the source's layered read stack for one pass: bufio on
// top for the decoders, byte accounting and transient-retry below, the
// FS at the bottom. countBytes is false for the header validation at
// open time — BytesRead accounts Scan passes only. The returned
// trackedReader counts the bytes the decoder consumed (not the
// read-ahead), so error offsets point at the failing entry.
func (fs *FileSource) reader(f io.ReadCloser, countBytes bool) *trackedReader {
	var r io.Reader = &retryReader{r: f, retries: &fs.retries}
	if countBytes {
		r = &countingReader{r: r, n: &fs.bytesRead}
	}
	return &trackedReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// trackedReader counts the bytes the decoder consumed from the
// buffered stream. Unlike a counter below the bufio layer it is not
// skewed by read-ahead, so FileError offsets are exact.
type trackedReader struct {
	br  *bufio.Reader
	off int64
}

func (t *trackedReader) Read(p []byte) (int, error) {
	n, err := t.br.Read(p)
	t.off += int64(n)
	return n, err
}

func (t *trackedReader) ReadByte() (byte, error) {
	b, err := t.br.ReadByte()
	if err == nil {
		t.off++
	}
	return b, err
}

func (t *trackedReader) ReadString(delim byte) (string, error) {
	s, err := t.br.ReadString(delim)
	t.off += int64(len(s))
	return s, err
}

// Buffered, Peek and Discard make the reader a bitpack.ByteSource: the
// bit reader borrows the bufio window and consumes through Discard,
// which counts what it crosses.
func (t *trackedReader) Buffered() int { return t.br.Buffered() }

func (t *trackedReader) Peek(n int) ([]byte, error) { return t.br.Peek(n) }

func (t *trackedReader) Discard(n int) (int, error) {
	d, err := t.br.Discard(n)
	t.off += int64(d)
	return d, err
}

// window is a decoder's view of the bytes bufio already holds: codes
// are decoded straight from buf, and the bytes before p are consumed
// (and counted) by commit. It never asks bufio to fill — only a code
// the window ends inside is read byte by byte, which refills it — so a
// read error surfaces once, from the read that hit it, at the offset a
// byte-at-a-time decoder reports.
type window struct {
	t   *trackedReader
	buf []byte
	p   int
}

// window returns the view of the bytes bufio holds right now.
func (t *trackedReader) window() window {
	buf, _ := t.br.Peek(t.br.Buffered()) // never fills, never fails
	return window{t: t, buf: buf}
}

// commit consumes the bytes decoded so far.
func (w *window) commit() {
	w.t.Discard(w.p)
	w.buf, w.p = w.buf[w.p:], 0
}

// uvarint decodes the next uvarint, from the window when it holds the
// whole code.
func (w *window) uvarint() (uint64, error) {
	if v, n := uvarintWord(w.buf[w.p:]); n > 0 {
		w.p += n
		return v, nil
	}
	return w.uvarintSlow()
}

// uvarintWord decodes a uvarint of at most five bytes — every column id
// and count fits — from the first word of b, with no branch per byte.
// n is 0 when b is shorter than a word or the code longer than five
// bytes; binary.Uvarint and ReadUvarint decide those.
func uvarintWord(b []byte) (v uint64, n int) {
	if len(b) < 8 {
		return 0, 0
	}
	x := binary.LittleEndian.Uint64(b)
	n = bits.TrailingZeros64(^x&0x8080808080808080)>>3 + 1 // the first byte with its high bit clear ends the code
	if n > 5 {
		return 0, 0
	}
	x &= 1<<(8*n) - 1
	// Byte i holds bits 7i..7i+6 of the value in its low seven bits.
	return x&0x7f | x>>1&0x3f80 | x>>2&0x1fc000 | x>>3&0xfe00000 | x>>4&0x7f0000000, n
}

// uvarintSlow decodes a code uvarintWord leaves: one among the window's
// last seven bytes, one longer than five bytes, one the window ends
// inside, one that overflows. The last two are read with
// binary.ReadUvarint from the committed position, so their value, error
// and offset are exactly a byte-at-a-time decoder's, and the window is
// refilled behind them.
func (w *window) uvarintSlow() (uint64, error) {
	if v, n := binary.Uvarint(w.buf[w.p:]); n > 0 {
		w.p += n
		return v, nil
	}
	w.commit()
	v, err := binary.ReadUvarint(w.t)
	*w = w.t.window()
	return v, err
}

// skipUvarints crosses n varints by counting terminator bytes (high
// bit clear) in the buffered window — no decoding, no per-byte calls.
func (t *trackedReader) skipUvarints(n int) error {
	for n > 0 {
		buf, err := t.br.Peek(512)
		if len(buf) == 0 {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		i := 0
		for i < len(buf) && n > 0 {
			if buf[i] < 0x80 {
				n--
			}
			i++
		}
		t.br.Discard(i)
		t.off += int64(i)
	}
	return nil
}

// discard crosses n bytes of the buffered stream.
func (t *trackedReader) discard(n int64) error {
	for n > 0 {
		chunk := n
		if chunk > 1<<16 {
			chunk = 1 << 16
		}
		d, err := t.br.Discard(int(chunk))
		t.off += int64(d)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		n -= int64(d)
	}
	return nil
}

// byteScanner is the reader the header decoders consume: buffered
// reads plus single bytes for varints.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// OpenFileSource validates the file header and returns a FileSource
// reading through the operating system.
func OpenFileSource(path string) (*FileSource, error) {
	return OpenFileSourceFS(nil, path)
}

// OpenFileSourceFS is OpenFileSource with every open routed through
// fsys (nil means the OS) — the seam fault-injection harnesses use to
// exercise the IO failure paths.
func OpenFileSourceFS(fsys FS, path string) (*FileSource, error) {
	if fsys == nil {
		fsys = osFS{}
	}
	fs := &FileSource{
		path:   path,
		fsys:   fsys,
		format: formatOf(path),
	}
	f, err := fs.open()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr := fs.reader(f, false)
	fs.rows, fs.cols, err = fs.header(tr)
	if err != nil {
		return nil, &FileError{Path: fs.path, Offset: tr.off, Err: err}
	}
	return fs, nil
}

// retiredMagic opens the column-major AMX1 (".amx") files of earlier
// versions, which no pass can stream.
const retiredMagic = "AMX1"

// errRetired is the header failure of an AMX1 file.
var errRetired = errors.New("AMX1 (.amx) is a retired column-major format; re-save the data as .arows")

// header reads and checks the header of the source's format, returning
// the dimensions it declares.
func (fs *FileSource) header(tr *trackedReader) (rows, cols int, err error) {
	magic, err := tr.Peek(len(retiredMagic))
	if string(magic) == retiredMagic {
		return 0, 0, errRetired
	}
	if err != nil && err != io.EOF {
		tr.Discard(len(magic)) // the offset a decoder reading up to the fault reports
		return 0, 0, fmt.Errorf("reading header: %w", err)
	}
	switch fs.format {
	case formatARows:
		return readRowHeader(tr, rowBinaryMagic, "row-binary")
	case formatCARows:
		return readRowHeader(tr, rowCompressedMagic, "compressed-row")
	}
	return readTextHeader(tr)
}

// rowDecoder is what a format contributes to a pass once its header is
// read: cross one row, or decode one row. Errors are returned raw; the
// pass attaches path and offset.
type rowDecoder interface {
	// skip crosses one row without delivering it. Only framing is
	// checked, enough that a corrupt prefix cannot silently
	// desynchronise the rows behind it.
	skip(row int) error
	// next decodes the row's column indices into buf, handed in empty,
	// fully validated: in range and strictly increasing.
	next(row int, buf []int32) ([]int32, error)
}

// Scan implements RowSource with one sequential pass over the file.
// Decode and IO failures return a *FileError with the path and byte
// offset reached; errors returned by fn pass through unchanged.
func (fs *FileSource) Scan(fn func(row int, cols []int32) error) error {
	return fs.scan(0, fs.rows, fn)
}

// ScanRange implements rangeScanner with one sequential pass that
// skip-decodes the prefix rows, delivers rows in [from, to) with their
// original ids, and stops without touching the tail. Skipped rows pay
// only framing cost: ".arows" prefixes are crossed by counting varint
// terminator bytes in the buffered window, ".carows" bitmap rows are
// crossed with a bulk discard and Rice rows with a value-free code
// walk. Validation of skipped rows is structural only (the stream
// stays framed); delivered rows are validated exactly like Scan.
// Bounds are clamped to [0, NumRows()]. Byte accounting and *FileError
// offsets behave like Scan.
func (fs *FileSource) ScanRange(from, to int, fn func(row int, cols []int32) error) error {
	from, to = max(from, 0), min(to, fs.rows)
	if from >= to {
		return nil
	}
	return fs.scan(from, to, fn)
}

// scan is the one pass over the file: open, check the header against
// the dimensions read at open time, cross rows [0, from), decode rows
// [from, to) into one reusable slice, stop.
func (fs *FileSource) scan(from, to int, fn func(row int, cols []int32) error) error {
	f, err := fs.open()
	if err != nil {
		return err
	}
	defer f.Close()
	tr := fs.reader(f, true)
	fail := func(err error) error {
		return &FileError{Path: fs.path, Offset: tr.off, Err: err}
	}
	rows, cols, err := fs.header(tr)
	if err != nil {
		return fail(err)
	}
	if rows != fs.rows || cols != fs.cols {
		return fail(fmt.Errorf("dimensions changed on disk: %dx%d", rows, cols))
	}
	dec := fs.decoder(tr)
	for row := 0; row < from; row++ {
		if err := dec.skip(row); err != nil {
			return fail(err)
		}
	}
	var buf []int32
	for row := from; row < to; row++ {
		if buf, err = dec.next(row, buf[:0]); err != nil {
			return fail(err)
		}
		if err := fn(row, buf); err != nil {
			return err
		}
	}
	return nil
}

// decoder returns the row decoder of the source's format over tr,
// positioned behind the header.
func (fs *FileSource) decoder(tr *trackedReader) rowDecoder {
	switch fs.format {
	case formatARows:
		return &rowBinaryDecoder{tr: tr, cols: fs.cols, w: tr.window()}
	case formatCARows:
		return &compressedRowDecoder{tr: tr, cols: fs.cols, pr: bitpack.NewReader(tr)}
	}
	return textDecoder{tr, fs.cols}
}

// textDecoder reads the rows of the text transaction format, one line
// each.
type textDecoder struct {
	tr   *trackedReader
	cols int
}

func (d textDecoder) skip(row int) error {
	if _, err := readLine(d.tr); err != nil {
		return fmt.Errorf("row %d: %w", row, err)
	}
	return nil
}

func (d textDecoder) next(row int, buf []int32) ([]int32, error) {
	line, err := readLine(d.tr)
	if err == nil {
		buf, err = parseTextRow(line, d.cols, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("row %d: %w", row, err)
	}
	return buf, nil
}

const rowBinaryMagic = "ARW1"

// writeRowBinary writes src in the row-major streaming binary format:
// magic, uvarint rows/cols, then per row a uvarint length followed by
// delta-encoded column indices. One pass over src.
func writeRowBinary(w io.Writer, src RowSource) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(rowBinaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(src.NumRows())); err != nil {
		return err
	}
	if err := writeUvarint(uint64(src.NumCols())); err != nil {
		return err
	}
	err := src.Scan(func(row int, cols []int32) error {
		if err := writeUvarint(uint64(len(cols))); err != nil {
			return err
		}
		prev := int32(0)
		for i, c := range cols {
			d := c - prev
			if i == 0 {
				d = c
			}
			if err := writeUvarint(uint64(d)); err != nil {
				return err
			}
			prev = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// readRowHeader reads the header the two binary row formats share: the
// format's magic, then uvarint rows and cols. kind names the format in
// errors.
func readRowHeader(r byteScanner, magic, kind string) (rows, cols int, err error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return 0, 0, fmt.Errorf("reading %s magic: %w", kind, err)
	}
	if string(got) != magic {
		return 0, 0, fmt.Errorf("bad %s magic %q", kind, got)
	}
	r64, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, fmt.Errorf("reading row count: %w", err)
	}
	c64, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, fmt.Errorf("reading column count: %w", err)
	}
	const maxDim = 1 << 31
	if r64 > maxDim || c64 > maxDim {
		return 0, 0, fmt.Errorf("implausible %s dimensions %dx%d", kind, r64, c64)
	}
	return int(r64), int(c64), nil
}

// rowBinaryDecoder reads the rows of an ".arows" stream straight from
// the bufio window: it decodes the complete codes the window holds and
// consumes them from bufio only when a code runs past the window's end
// (then reading that code byte by byte refills the window) or a row
// fails, so the failing row's FileError carries the exact offset.
type rowBinaryDecoder struct {
	tr   *trackedReader
	cols int
	w    window
}

// length reads a row's entry count.
func (d *rowBinaryDecoder) length(row int) (uint64, error) {
	length, err := d.w.uvarint()
	if err != nil {
		return 0, fmt.Errorf("row %d length: %w", row, err)
	}
	if length > uint64(d.cols) {
		return 0, fmt.Errorf("row %d length %d exceeds column count", row, length)
	}
	return length, nil
}

func (d *rowBinaryDecoder) skip(row int) error {
	length, err := d.length(row)
	d.w.commit()
	if err != nil {
		return err
	}
	err = d.tr.skipUvarints(int(length))
	d.w = d.tr.window()
	if err != nil {
		return fmt.Errorf("row %d: %w", row, err)
	}
	return nil
}

func (d *rowBinaryDecoder) next(row int, buf []int32) ([]int32, error) {
	buf, err := d.decode(row, buf)
	if err != nil {
		d.w.commit()
	}
	return buf, err
}

func (d *rowBinaryDecoder) decode(row int, buf []int32) ([]int32, error) {
	length, err := d.length(row)
	if err != nil {
		return nil, err
	}
	cols := uint64(d.cols)
	prev := uint64(0)
	win, p := d.w.buf, d.w.p
	for i := uint64(0); i < length; i++ {
		delta, n := uvarintWord(win[p:])
		if p += n; n == 0 {
			d.w.p = p
			if delta, err = d.w.uvarintSlow(); err != nil {
				return nil, fmt.Errorf("row %d entry %d: %w", row, i, err)
			}
			win, p = d.w.buf, d.w.p
		}
		// Bound the delta before adding it: a wider one must not wrap
		// into range.
		v := prev + delta
		if delta >= cols || v >= cols || (i > 0 && delta == 0) {
			d.w.p = p
			return nil, fmt.Errorf("row %d entry %d out of range", row, i)
		}
		buf = append(buf, int32(v))
		prev = v
	}
	d.w.p = p
	return buf, nil
}

// SaveRowBinary writes src to path in the ".arows" streaming format.
func SaveRowBinary(path string, src RowSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeRowBinary(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
