package faultfs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"assocmine/internal/faultfs"
	"assocmine/internal/matrix"
)

// fuzzRows spans the 512-row shard boundary of matrix.Deal so faults
// seeded there land inside the dataset.
const (
	shardRows = 512
	fuzzRows  = shardRows + 64
	fuzzCols  = 24
)

// fuzzDataset encodes the fixed fuzz dataset in the row-binary format
// and returns the bytes plus the materialised rows.
func fuzzDataset(tb testing.TB) ([]byte, [][]int32) {
	tb.Helper()
	rows := make([][]int32, fuzzRows)
	for r := range rows {
		for c := r % 5; c < fuzzCols; c += 2 + r%3 {
			rows[r] = append(rows[r], int32(c))
		}
	}
	src := &matrix.SliceSource{Cols: fuzzCols, Rows: rows}
	var buf bytes.Buffer
	if err := matrix.WriteRowBinary(&buf, src); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), rows
}

// rowOffset walks the encoded stream and returns the byte offset at
// which the given row's length varint begins.
func rowOffset(tb testing.TB, encoded []byte, row int) int64 {
	tb.Helper()
	r := bytes.NewReader(encoded)
	off := func() int64 { return int64(len(encoded)) - int64(r.Len()) }
	if _, err := r.Seek(4, 0); err != nil { // magic
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ { // rows, cols
		if _, err := binary.ReadUvarint(r); err != nil {
			tb.Fatal(err)
		}
	}
	for rr := 0; rr < row; rr++ {
		length, err := binary.ReadUvarint(r)
		if err != nil {
			tb.Fatal(err)
		}
		for i := uint64(0); i < length; i++ {
			if _, err := binary.ReadUvarint(r); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return off()
}

// decodePlan turns fuzz bytes into a fault plan: 4 bytes per event —
// offset (little-endian uint16), kind, latency delay in µs. Capped at
// 64 events so injected sleeps cannot stall the fuzzer.
func decodePlan(data []byte) []faultfs.Event {
	var events []faultfs.Event
	for i := 0; i+4 <= len(data) && len(events) < 64; i += 4 {
		ev := faultfs.Event{
			Offset: int64(binary.LittleEndian.Uint16(data[i:])),
			Kind:   faultfs.Kind(data[i+2] % 4),
		}
		if ev.Kind == faultfs.Latency {
			ev.Delay = time.Duration(data[i+3]) * time.Microsecond
		}
		events = append(events, ev)
	}
	return events
}

func encodeEvents(events []faultfs.Event) []byte {
	out := make([]byte, 0, 4*len(events))
	for _, ev := range events {
		var b [4]byte
		binary.LittleEndian.PutUint16(b[:], uint16(ev.Offset))
		b[2] = byte(ev.Kind)
		out = append(out, b[:]...)
	}
	return out
}

// FuzzPlanRowBinary composes arbitrary fault plans with the row-binary
// scanner: whatever the plan, the scan must either fail with an error
// or deliver a result bit-identical to the clean scan — never panic,
// never silently corrupt rows.
func FuzzPlanRowBinary(f *testing.F) {
	encoded, want := fuzzDataset(f)
	boundary := rowOffset(f, encoded, shardRows)

	f.Add([]byte{})
	// Faults landing exactly on the shard boundary, one per kind.
	for k := faultfs.Transient; k <= faultfs.Truncate; k++ {
		f.Add(encodeEvents([]faultfs.Event{{Offset: boundary, Kind: k}}))
	}
	// A burst of transients at the boundary exceeding the retry budget,
	// and a mixed plan straddling it.
	burst := make([]faultfs.Event, 8)
	for i := range burst {
		burst[i] = faultfs.Event{Offset: boundary, Kind: faultfs.Transient}
	}
	f.Add(encodeEvents(burst))
	f.Add(encodeEvents([]faultfs.Event{
		{Offset: boundary - 1, Kind: faultfs.ShortRead},
		{Offset: boundary, Kind: faultfs.Transient},
		{Offset: boundary + 1, Kind: faultfs.Latency},
	}))
	f.Add(encodeEvents([]faultfs.Event{{Offset: 0, Kind: faultfs.Truncate}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodePlan(data)
		fs := &faultfs.FS{
			Inner: memFS{"data.arows": encoded},
			Plan:  func(string, int) []faultfs.Event { return events },
		}
		src, err := matrix.OpenFileSourceFS(fs, "data.arows")
		if err != nil {
			return // header unreadable under this plan: a clean failure
		}
		src.SetRetryPolicy(matrix.RetryPolicy{Retries: 4, BaseDelay: time.Microsecond})
		got := make([][]int32, 0, fuzzRows)
		err = src.Scan(func(row int, cols []int32) error {
			if row != len(got) {
				return fmt.Errorf("row %d delivered out of order (want %d)", row, len(got))
			}
			got = append(got, append([]int32(nil), cols...))
			return nil
		})
		if err != nil {
			return // surfaced error: acceptable outcome
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan under plan %v succeeded with corrupted rows", events)
		}
	})
}
