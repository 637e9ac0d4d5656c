package matrix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rowBinary assembles an .arows payload from the header fields and raw
// varint body values, letting each case corrupt exactly one branch.
func rowBinary(magic string, header []uint64, body []uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range append(append([]uint64{}, header...), body...) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	return buf.Bytes()
}

// TestFileSourceDecodeErrors drives every decode branch of both file
// formats with a corrupted file and asserts the failure is a *FileError
// whose message carries the file path.
func TestFileSourceDecodeErrors(t *testing.T) {
	validBinary := rowBinary("ARW1", []uint64{2, 4}, []uint64{2, 0, 2, 1, 3})
	cases := []struct {
		name    string
		ext     string
		data    []byte
		openErr bool   // error expected from Open rather than Scan
		want    string // substring of the underlying cause
	}{
		{
			name: "binary bad magic", ext: ".arows", openErr: true,
			data: rowBinary("ARWX", []uint64{2, 4}, nil),
			want: "bad row-binary magic",
		},
		{
			name: "binary header overflow", ext: ".arows", openErr: true,
			data: rowBinary("ARW1", []uint64{1 << 40, 4}, nil),
			want: "implausible row-binary dimensions",
		},
		{
			name: "binary truncated header", ext: ".arows", openErr: true,
			data: []byte("ARW1"),
			want: "reading row count",
		},
		{
			name: "binary column out of range", ext: ".arows",
			data: rowBinary("ARW1", []uint64{1, 3}, []uint64{1, 7}),
			want: "out of range",
		},
		{
			// 2^32+1 truncated to int32 is 1, a valid column of the 1×3
			// matrix: the delta must be bounded before it is converted.
			name: "binary delta wraps int32", ext: ".arows",
			data: rowBinary("ARW1", []uint64{1, 3}, []uint64{1, 1<<32 + 1}),
			want: "row 0 entry 0 out of range",
		},
		{
			name: "binary row length exceeds cols", ext: ".arows",
			data: rowBinary("ARW1", []uint64{1, 3}, []uint64{9}),
			want: "exceeds column count",
		},
		{
			name: "binary mid-row truncation", ext: ".arows",
			data: validBinary[:len(validBinary)-2],
			want: "row 1",
		},
		{
			name: "text bad header", ext: ".txt", openErr: true,
			data: []byte("%%not-a-matrix\n2 4\n"),
			want: "bad header",
		},
		{
			name: "text bad dimension line", ext: ".txt", openErr: true,
			data: []byte("%%assocmine-matrix v1\ntwo four\n"),
			want: "bad dimension line",
		},
		{
			name: "text column out of range", ext: ".txt",
			data: []byte("%%assocmine-matrix v1\n2 4\n0 2\n0 9\n"),
			want: "out of range",
		},
		{
			name: "text non-numeric column", ext: ".txt",
			data: []byte("%%assocmine-matrix v1\n1 4\n0 x\n"),
			want: "bad column",
		},
		{
			name: "text mid-file truncation", ext: ".txt",
			data: []byte("%%assocmine-matrix v1\n3 4\n0 2\n"),
			want: "row 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "data"+tc.ext)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := OpenFileSource(path)
			if err == nil {
				if tc.openErr {
					t.Fatal("OpenFileSource accepted a corrupted header")
				}
				err = src.Scan(func(int, []int32) error { return nil })
			} else if !tc.openErr {
				t.Fatalf("header rejected, expected scan-time failure: %v", err)
			}
			if err == nil {
				t.Fatal("corrupted file scanned without error")
			}
			var fe *FileError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v (%T), want *FileError", err, err)
			}
			if fe.Path != path {
				t.Errorf("FileError.Path = %q, want %q", fe.Path, path)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not mention the file path", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if fe.Offset < 0 || fe.Offset > int64(len(tc.data)) {
				t.Errorf("FileError.Offset = %d outside file of %d bytes", fe.Offset, len(tc.data))
			}
		})
	}
}
