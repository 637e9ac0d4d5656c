package faultfs_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"assocmine/internal/faultfs"
	"assocmine/internal/matrix"
)

// memFS serves fixed byte contents per path, so reader tests need no
// real files.
type memFS map[string][]byte

func (m memFS) Open(path string) (io.ReadCloser, error) {
	data, ok := m[path]
	if !ok {
		return nil, os.ErrNotExist
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// readAllRetrying drains r, retrying transient errors without bound —
// a stand-in for the hardened reader of matrix.FileSource.
func readAllRetrying(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 7) // odd size to exercise read splitting
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil && !errors.Is(err, syscall.EAGAIN) {
			t.Fatalf("permanent error after %d bytes: %v", len(out), err)
		}
	}
}

func TestTransientFaultIsRetriableAndPositionPreserving(t *testing.T) {
	data := []byte("0123456789abcdef")
	fs := &faultfs.FS{
		Inner: memFS{"f": data},
		Plan: func(string, int) []faultfs.Event {
			return []faultfs.Event{{Offset: 5, Kind: faultfs.Transient}}
		},
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := readAllRetrying(t, f)
	if !bytes.Equal(got, data) {
		t.Fatalf("retried stream = %q, want %q", got, data)
	}
	if n := fs.FaultsInjected(); n != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", n)
	}
}

func TestTransientErrorClassifiesAsTransient(t *testing.T) {
	fs := &faultfs.FS{
		Inner: memFS{"f": []byte("abc")},
		Plan: func(string, int) []faultfs.Event {
			return []faultfs.Event{{Offset: 0, Kind: faultfs.Transient}}
		},
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Read(make([]byte, 4))
	if err == nil {
		t.Fatal("want injected error")
	}
	if !errors.Is(err, syscall.EAGAIN) {
		t.Errorf("errors.Is(err, EAGAIN) = false for %v", err)
	}
	if !errors.Is(err, faultfs.ErrTransient) {
		t.Errorf("errors.Is(err, ErrTransient) = false for %v", err)
	}
	if !errors.Is(err, syscall.EAGAIN) {
		t.Errorf("errors.Is(err, EAGAIN) = false for %v", err)
	}
}

func TestShortReadCapsAtOneByte(t *testing.T) {
	fs := &faultfs.FS{
		Inner: memFS{"f": []byte("0123456789")},
		Plan: func(string, int) []faultfs.Event {
			return []faultfs.Event{{Offset: 3, Kind: faultfs.ShortRead}}
		},
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 10)
	// First read is split so the event fires exactly at offset 3.
	n, err := f.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("read 1 = %d, %v; want 3, nil", n, err)
	}
	n, err = f.Read(buf)
	if err != nil || n != 1 {
		t.Fatalf("short read = %d, %v; want 1, nil", n, err)
	}
	got := append([]byte{}, buf[:1]...)
	rest := readAllRetrying(t, f)
	if want := "3456789"; string(append(got, rest...)) != want {
		t.Fatalf("stream after split = %q, want %q", append(got, rest...), want)
	}
}

func TestLatencyDelaysButPreservesBytes(t *testing.T) {
	data := []byte("0123456789")
	delay := 20 * time.Millisecond
	fs := &faultfs.FS{
		Inner: memFS{"f": data},
		Plan: func(string, int) []faultfs.Event {
			return []faultfs.Event{{Offset: 2, Kind: faultfs.Latency, Delay: delay}}
		},
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	got := readAllRetrying(t, f)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream = %q, want %q", got, data)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("elapsed %v < injected latency %v", elapsed, delay)
	}
}

func TestTruncateIsPermanentEOF(t *testing.T) {
	fs := &faultfs.FS{
		Inner: memFS{"f": []byte("0123456789")},
		Plan: func(string, int) []faultfs.Event {
			return []faultfs.Event{{Offset: 4, Kind: faultfs.Truncate}}
		},
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "0123" {
		t.Fatalf("truncated stream = %q, want %q", got, "0123")
	}
	// EOF must persist.
	if n, err := f.Read(make([]byte, 4)); n != 0 || err != io.EOF {
		t.Fatalf("read past truncation = %d, %v; want 0, EOF", n, err)
	}
	if n := fs.FaultsInjected(); n != 1 {
		t.Fatalf("FaultsInjected = %d, want 1 (truncation counts once)", n)
	}
}

func TestPerOpenPlansAndOpenCounts(t *testing.T) {
	fs := &faultfs.FS{
		Inner: memFS{"f": []byte("0123456789")},
		Plan: func(_ string, open int) []faultfs.Event {
			if open == 0 {
				return []faultfs.Event{{Offset: 1, Kind: faultfs.Transient}}
			}
			return nil
		},
	}
	for i := 0; i < 2; i++ {
		f, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		got := readAllRetrying(t, f)
		f.Close()
		if string(got) != "0123456789" {
			t.Fatalf("open %d stream = %q", i, got)
		}
	}
	if n := fs.FaultsInjected(); n != 1 {
		t.Fatalf("FaultsInjected = %d, want 1 (second open clean)", n)
	}
	if n := fs.Opens("f"); n != 2 {
		t.Fatalf("Opens = %d, want 2", n)
	}
}

func TestTransientOpens(t *testing.T) {
	fs := &faultfs.FS{
		Inner:   memFS{"f": []byte("abc")},
		OpenErr: faultfs.TransientOpens(2),
	}
	for i := 0; i < 2; i++ {
		if _, err := fs.Open("f"); err == nil || !errors.Is(err, syscall.EAGAIN) {
			t.Fatalf("open %d: err = %v, want transient", i, err)
		}
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	f.Close()
}

func TestSeededPlansAreDeterministic(t *testing.T) {
	opts := faultfs.Options{MeanGap: 64, MaxBytes: 4096}
	a := faultfs.Seeded(42, opts)
	b := faultfs.Seeded(42, opts)
	pa, pb := a("x.arows", 0), b("x.arows", 0)
	if len(pa) == 0 {
		t.Fatal("seeded plan produced no events; MeanGap too large?")
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same (seed, path, open) produced different plans")
	}
	if reflect.DeepEqual(pa, a("x.arows", 1)) {
		t.Error("distinct opens produced identical plans")
	}
	if reflect.DeepEqual(pa, a("y.arows", 0)) {
		t.Error("distinct paths produced identical plans")
	}
	if reflect.DeepEqual(pa, faultfs.Seeded(43, opts)("x.arows", 0)) {
		t.Error("distinct seeds produced identical plans")
	}
	for _, ev := range pa {
		if ev.Kind == faultfs.Truncate {
			t.Errorf("default kinds must exclude Truncate, got %v at %d", ev.Kind, ev.Offset)
		}
	}
}

// writeArows saves a small synthetic dataset in the row-binary format
// and returns its path.
func writeArows(t *testing.T, rows, cols int) string {
	t.Helper()
	var rowData [][]int32
	for r := 0; r < rows; r++ {
		var cs []int32
		for c := r % cols; c < cols; c += 3 {
			cs = append(cs, int32(c))
		}
		rowData = append(rowData, cs)
	}
	src := &matrix.SliceSource{Cols: cols, Rows: rowData}
	path := filepath.Join(t.TempDir(), "data.arows")
	if err := matrix.SaveRowBinary(path, src); err != nil {
		t.Fatal(err)
	}
	return path
}

// collectRows scans src into a materialised [][]int32.
func collectRows(t *testing.T, src *matrix.FileSource) [][]int32 {
	t.Helper()
	out := make([][]int32, src.NumRows())
	err := src.Scan(func(row int, cols []int32) error {
		out[row] = append([]int32(nil), cols...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFileSourceRidesOutSeededTransientFaults(t *testing.T) {
	path := writeArows(t, 200, 30)
	clean, err := matrix.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, clean)

	fs := &faultfs.FS{
		Plan:    faultfs.Seeded(7, faultfs.Options{MeanGap: 128}),
		OpenErr: faultfs.TransientOpens(1),
	}
	src, err := matrix.OpenFileSourceFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, src)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("faulted scan differs from clean scan")
	}
	if fs.FaultsInjected() == 0 {
		t.Fatal("plan injected no faults; test exercises nothing")
	}
	if src.IORetries() == 0 {
		t.Fatal("source reports zero retries despite transient faults")
	}
	// Split and retried reads still count each byte of the file once.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if src.BytesRead() != info.Size() {
		t.Fatalf("source read %d bytes, the file has %d", src.BytesRead(), info.Size())
	}
}

func TestFileSourceTruncationIsFileErrorWithOffset(t *testing.T) {
	path := writeArows(t, 200, 30)
	const cut = 100
	fs := &faultfs.FS{
		Plan: func(string, int) []faultfs.Event {
			return []faultfs.Event{{Offset: cut, Kind: faultfs.Truncate}}
		},
	}
	src, err := matrix.OpenFileSourceFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	err = src.Scan(func(int, []int32) error { return nil })
	var fe *matrix.FileError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *matrix.FileError", err)
	}
	if fe.Path != path {
		t.Errorf("FileError.Path = %q, want %q", fe.Path, path)
	}
	// The decoder consumed at most cut bytes before hitting EOF; the
	// reported offset must sit inside the surviving prefix.
	if fe.Offset <= 0 || fe.Offset > cut {
		t.Errorf("FileError.Offset = %d, want in (0,%d]", fe.Offset, cut)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want to wrap EOF-class cause", err)
	}
}

func TestFileSourceRetryBudgetExhaustion(t *testing.T) {
	path := writeArows(t, 50, 10)
	// Six transients at one offset: more than the initial read plus
	// four retries the default policy affords one position.
	events := make([]faultfs.Event, 6)
	for i := range events {
		events[i] = faultfs.Event{Offset: 40, Kind: faultfs.Transient}
	}
	fs := &faultfs.FS{Plan: func(string, int) []faultfs.Event { return events }}
	src, err := matrix.OpenFileSourceFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	err = src.Scan(func(int, []int32) error { return nil })
	var fe *matrix.FileError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *matrix.FileError after retry exhaustion", err)
	}
	if !errors.Is(err, faultfs.ErrTransient) {
		t.Errorf("err = %v, want to wrap the surviving transient fault", err)
	}
	if got := src.IORetries(); got != 4 {
		t.Errorf("IORetries = %d, want 4 (the full budget)", got)
	}
}
