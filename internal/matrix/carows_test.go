package matrix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assocmine/internal/bitpack"
	"assocmine/internal/hashing"
)

// memFS serves one byte slice under every path: a FileSource without
// the file system.
type memFS []byte

func (m memFS) Open(string) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(m)), nil
}

// parseCArows decodes a ".carows" byte stream into a Matrix, the way
// OpenFileSource+Collect would without the file system.
func parseCArows(data []byte) (*Matrix, error) {
	fs, err := OpenFileSourceFS(memFS(data), "mem.carows")
	if err != nil {
		return nil, err
	}
	rowData := make([][]int32, 0, min(fs.NumRows(), 1024))
	err = fs.Scan(func(_ int, cs []int32) error {
		rowData = append(rowData, append([]int32(nil), cs...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromRows(fs.NumCols(), rowData)
}

func TestFileSourceCompressedRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	for _, tc := range []struct {
		name    string
		m       *Matrix
		density float64
	}{
		{name: "sparse", m: randomMatrix(rng, 200, 40, 0.05)},
		{name: "dense", m: randomMatrix(rng, 150, 30, 0.6)}, // small Rice parameters
		{name: "paper", m: paperExample()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "data.carows")
			if err := SaveRowCompressed(path, tc.m.Stream()); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenFileSource(path)
			if err != nil {
				t.Fatal(err)
			}
			if fs.NumRows() != tc.m.NumRows() || fs.NumCols() != tc.m.NumCols() {
				t.Fatalf("dims %dx%d", fs.NumRows(), fs.NumCols())
			}
			got, err := Collect(fs)
			if err != nil {
				t.Fatal(err)
			}
			if !matricesEqual(tc.m, got) {
				t.Error("FileSource compressed scan mismatch")
			}
		})
	}
}

func TestSaveLoadFileCompressed(t *testing.T) {
	m := paperExample()
	path := filepath.Join(t.TempDir(), "p.carows")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Error("SaveFile/loadFile .carows mismatch")
	}
}

func TestCompressedSmallerThanBinary(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m := randomMatrix(rng, 500, 2000, 0.1)
	var arows, carows bytes.Buffer
	if err := writeRowBinary(&arows, m.Stream()); err != nil {
		t.Fatal(err)
	}
	if err := writeRowCompressed(&carows, m.Stream()); err != nil {
		t.Fatal(err)
	}
	if carows.Len() >= arows.Len() {
		t.Errorf("compressed %d bytes >= binary %d bytes", carows.Len(), arows.Len())
	}
	t.Logf("arows %d bytes, carows %d bytes (%.2fx)",
		arows.Len(), carows.Len(), float64(arows.Len())/float64(carows.Len()))
}

// fuzzSeedMatrix is a 130-row matrix spanning multiple 64-row shards
// with sparse and dense rows (large and small Rice parameters) and some
// empty ones.
func fuzzSeedMatrix() *Matrix {
	rows := make([][]int32, 130)
	for r := range rows {
		switch r % 3 {
		case 0: // sparse
			rows[r] = []int32{int32(r % 7), int32(r%7 + 5), 19}
		case 1: // dense
			for c := int32(0); c < 20; c += 2 {
				rows[r] = append(rows[r], c)
			}
		}
	}
	m, err := FromRows(20, rows)
	if err != nil {
		panic(err)
	}
	return m
}

// carows assembles a hostile ".carows" payload: magic, header varints,
// then raw row bytes produced by the caller.
func carows(magic string, header []uint64, body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range header {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	buf.Write(body)
	return buf.Bytes()
}

// uvarint renders v alone, for splicing into hostile row payloads.
func uvarint(v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append([]byte(nil), tmp[:n]...)
}

// riceRow renders a row payload: the header varint h followed by vals
// Rice-coded with parameter k, byte-aligned.
func riceRow(h uint64, k uint, vals []uint64) []byte {
	var buf bytes.Buffer
	buf.Write(uvarint(h))
	bw := bitpack.NewWriter(&buf)
	for _, v := range vals {
		bw.WriteRice(v, k)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestCompressedDecodeErrors(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		openErr bool
		want    string
	}{
		{
			name: "bad magic", openErr: true,
			data: carows("CRWX", []uint64{2, 4}, nil),
			want: "bad compressed-row magic",
		},
		{
			name: "header overflow", openErr: true,
			data: carows("CRW1", []uint64{1 << 40, 4}, nil),
			want: "implausible compressed-row dimensions",
		},
		{
			name: "truncated header", openErr: true,
			data: []byte("CRW1"),
			want: "reading row count",
		},
		{
			name: "count exceeds cols",
			data: carows("CRW1", []uint64{1, 4}, uvarint(9<<6)),
			want: "count 9 out of range",
		},
		{
			name: "nonzero header with zero count",
			data: carows("CRW1", []uint64{1, 4}, uvarint(1<<5)),
			want: "count 0 out of range",
		},
		{
			name: "bitmap header with rice parameter",
			data: carows("CRW1", []uint64{1, 4}, append(uvarint(1<<6|1<<5|3), 0x01)),
			want: "bitmap header has rice parameter",
		},
		{
			name: "bitmap popcount mismatch",
			data: carows("CRW1", []uint64{1, 4}, append(uvarint(2<<6|1<<5), 0x01)),
			want: "bitmap has 1 bits, header says 2",
		},
		{
			name: "bitmap bit beyond cols",
			data: carows("CRW1", []uint64{1, 4}, append(uvarint(1<<6|1<<5), 0x20)),
			want: "out of range",
		},
		{
			name: "bitmap truncated",
			data: carows("CRW1", []uint64{1, 100}, uvarint(1<<6|1<<5)),
			want: "bitmap",
		},
		{
			name: "rice entry out of range",
			data: carows("CRW1", []uint64{1, 4}, riceRow(1<<6, 0, []uint64{7})),
			want: "entry 0 out of range",
		},
		{
			name: "rice second entry out of range",
			data: carows("CRW1", []uint64{1, 4}, riceRow(2<<6, 0, []uint64{1, 5})),
			want: "entry 1 out of range",
		},
		{
			name: "mid-row truncation",
			data: carows("CRW1", []uint64{2, 4}, riceRow(2<<6|2, 2, []uint64{0, 1})),
			want: "row 1",
		},
		{
			name: "missing rows",
			data: carows("CRW1", []uint64{3, 4}, uvarint(0)),
			want: "row 1 header",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "data.carows")
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
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if fe.Offset < 0 || fe.Offset > int64(len(tc.data)) {
				t.Errorf("FileError.Offset = %d outside file of %d bytes", fe.Offset, len(tc.data))
			}
		})
	}
}

// TestCompressedShardStreaming runs the compressed source through the
// shard fan-out used by the streamed pipeline.
func TestCompressedShardStreaming(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	m := randomMatrix(rng, 230, 35, 0.1)
	path := filepath.Join(t.TempDir(), "data.carows")
	if err := SaveRowCompressed(path, m.Stream()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int32, m.NumRows())
	shards, err := scanShards(fs, 64, shardCols, func(s *shard) error {
		for i := range s.rows {
			r, cs := s.row(i)
			got[r] = append([]int32(nil), cs...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shards == 0 {
		t.Error("no shards streamed")
	}
	gm, err := FromRows(m.NumCols(), got)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, gm) {
		t.Error("sharded compressed scan mismatch")
	}
}
