package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The on-disk formats. Text is a line-oriented transaction format
// (one row per line, space-separated column indices), convenient for
// interchange with classic market-basket tools. Binary is a compact
// varint column-major encoding used by the cmd/ tools.

const (
	textHeader  = "%%assocmine-matrix v1"
	binaryMagic = "AMX1"
)

// WriteText writes the matrix in the text format:
//
//	%%assocmine-matrix v1
//	<rows> <cols>
//	<col> <col> ...   (one line per row; blank line = empty row)
func WriteText(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\n%d %d\n", textHeader, m.NumRows(), m.NumCols()); err != nil {
		return err
	}
	err := m.Stream().Scan(func(row int, cols []int32) error {
		for i, c := range cols {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(c))); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadText parses the text format written by WriteText.
func ReadText(r io.Reader) (*Matrix, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	rows, cols, err := readTextHeader(br)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	b := NewBuilder(rows, cols)
	var buf []int32
	for row := 0; row < rows; row++ {
		line, err := readLine(br)
		if err == nil {
			buf, err = parseTextRow(line, cols, buf[:0])
		}
		if err != nil {
			return nil, fmt.Errorf("matrix: row %d: %w", row, err)
		}
		for _, c := range buf {
			b.Set(row, int(c))
		}
	}
	return b.Build(), nil
}

// readTextHeader reads the two header lines of the text format — the
// magic line and "rows cols" — and returns the dimensions.
func readTextHeader(br lineReader) (rows, cols int, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, 0, fmt.Errorf("reading header: %w", err)
	}
	if line != textHeader {
		return 0, 0, fmt.Errorf("bad header %q", line)
	}
	line, err = readLine(br)
	if err != nil {
		return 0, 0, fmt.Errorf("reading dimensions: %w", err)
	}
	if _, err := fmt.Sscanf(line, "%d %d", &rows, &cols); err != nil {
		return 0, 0, fmt.Errorf("bad dimension line %q: %w", line, err)
	}
	if rows < 0 || cols < 0 {
		return 0, 0, fmt.Errorf("negative dimensions %dx%d", rows, cols)
	}
	return rows, cols, nil
}

// parseTextRow appends the column indices of one text row to buf as a
// sorted set: files written by WriteText are already strictly
// increasing, hand-written ones need not be, and RowSource promises
// sorted distinct columns.
func parseTextRow(line string, cols int, buf []int32) ([]int32, error) {
	sorted := true
	for _, field := range strings.Fields(line) {
		c, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad column %q", field)
		}
		if c < 0 || c >= cols {
			return nil, fmt.Errorf("column %d out of range [0,%d)", c, cols)
		}
		if n := len(buf); n > 0 && int32(c) <= buf[n-1] {
			sorted = false
		}
		buf = append(buf, int32(c))
	}
	if !sorted {
		buf = SortDedup(buf)
	}
	return buf, nil
}

// lineReader is the subset of bufio.Reader readLine needs; the
// offset-tracked readers of the file-backed scans implement it too.
type lineReader interface {
	ReadString(delim byte) (string, error)
}

func readLine(br lineReader) (string, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF && line != "" {
		err = nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// WriteBinary writes the compact column-major binary encoding:
// magic, uvarint rows, uvarint cols, then per column a uvarint length
// followed by delta-encoded uvarint row indices.
func WriteBinary(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(m.NumRows())); err != nil {
		return err
	}
	if err := writeUvarint(uint64(m.NumCols())); err != nil {
		return err
	}
	for c := 0; c < m.NumCols(); c++ {
		col := m.Column(c)
		if err := writeUvarint(uint64(len(col))); err != nil {
			return err
		}
		prev := int32(0)
		for i, r := range col {
			d := r - prev
			if i == 0 {
				d = r
			}
			if err := writeUvarint(uint64(d)); err != nil {
				return err
			}
			prev = r
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary encoding written by WriteBinary.
func ReadBinary(r io.Reader) (*Matrix, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("matrix: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("matrix: bad magic %q", magic)
	}
	rows64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("matrix: reading row count: %w", err)
	}
	cols64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("matrix: reading column count: %w", err)
	}
	const maxDim = 1 << 31
	if rows64 > maxDim || cols64 > maxDim {
		return nil, fmt.Errorf("matrix: implausible dimensions %dx%d", rows64, cols64)
	}
	rows, ncols := int(rows64), int(cols64)
	cols := make([][]int32, ncols)
	for c := 0; c < ncols; c++ {
		length, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("matrix: column %d length: %w", c, err)
		}
		if length > uint64(rows) {
			return nil, fmt.Errorf("matrix: column %d length %d exceeds row count %d", c, length, rows)
		}
		if length == 0 {
			continue
		}
		col := make([]int32, length)
		prev := int32(0)
		for i := range col {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("matrix: column %d entry %d: %w", c, i, err)
			}
			var v int32
			if i == 0 {
				v = int32(d)
			} else {
				v = prev + int32(d)
			}
			if v < prev && i > 0 || int(v) >= rows || v < 0 {
				return nil, fmt.Errorf("matrix: column %d entry %d out of range", c, i)
			}
			col[i] = v
			prev = v
		}
		cols[c] = col
	}
	return New(rows, cols)
}

// SaveFile writes the matrix to path, choosing the codec from the
// extension: ".txt" (or anything else) for text, ".amx" for binary,
// ".arows" for the streaming row binary, ".carows" for the compressed
// streaming rows.
func SaveFile(path string, m *Matrix) error {
	switch {
	case strings.HasSuffix(path, ".arows"):
		return SaveRowBinary(path, m.Stream())
	case strings.HasSuffix(path, ".carows"):
		return SaveRowCompressed(path, m.Stream())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".amx") {
		err = WriteBinary(f, m)
	} else {
		err = WriteText(f, m)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile reads a matrix written by SaveFile or SaveRowBinary
// (".amx" column binary, ".arows"/".carows" streaming binaries, text
// otherwise).
func LoadFile(path string) (*Matrix, error) {
	if strings.HasSuffix(path, ".arows") || strings.HasSuffix(path, ".carows") {
		src, err := OpenFileSource(path)
		if err != nil {
			return nil, err
		}
		return Collect(src)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".amx") {
		return ReadBinary(f)
	}
	return ReadText(f)
}
