package matrix

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// textHeader opens the text format: one row per line, space-separated
// column indices, convenient for interchange with classic market-basket
// tools.
const textHeader = "%%assocmine-matrix v1"

// writeText writes the matrix in the text format:
//
//	%%assocmine-matrix v1
//	<rows> <cols>
//	<col> <col> ...   (one line per row; blank line = empty row)
func writeText(w io.Writer, m *Matrix) error {
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
// sorted set: files written by writeText are already strictly
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

// SaveFile writes the matrix to path in the format FileSource reads
// from its suffix: ".arows" for the streaming row binary, ".carows" for
// the compressed streaming rows, text otherwise.
func SaveFile(path string, m *Matrix) error {
	switch formatOf(path) {
	case formatARows:
		return SaveRowBinary(path, m.Stream())
	case formatCARows:
		return SaveRowCompressed(path, m.Stream())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeText(f, m)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
