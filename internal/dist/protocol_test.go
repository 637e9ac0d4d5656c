package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

func TestHelloRoundTrip(t *testing.T) {
	in := &hello{Path: "/tmp/data.carows", Params: candidate.Params{
		Algo: fold.KMinHash, K: 100, R: 5, L: 20, SampleBudget: 32,
		Seed: 0xfeedface, Threshold: 0.375, Delta: 0.2,
	}}
	out, err := decodeHello(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
}

func TestHelloRejectsVersionMismatch(t *testing.T) {
	p := (&hello{Path: "x", Params: candidate.Params{Algo: MinHash, Threshold: 0.5}}).encode()
	p[0] = protoVersion + 1
	if _, err := decodeHello(p); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestKeyRunRoundTrip(t *testing.T) {
	next := testutil.SplitMix64(41)
	for trial := 0; trial < 30; trial++ {
		n := int(next() % 200)
		keys := make([]uint64, 0, n)
		cur := next() % 1000
		for i := 0; i < n; i++ {
			cur += 1 + next()%int64max(1, 1<<(next()%20))
			keys = append(keys, cur)
		}
		var b bytes.Buffer
		if err := encodeKeyRun(&b, keys); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := decodeKeyRun(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(keys) {
			t.Fatalf("trial %d: %d keys, want %d", trial, len(got), len(keys))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("trial %d: key %d = %d, want %d", trial, i, got[i], keys[i])
			}
		}
	}
}

func int64max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestScoredRunRoundTrip(t *testing.T) {
	cand := []pairs.Scored{
		{Pair: pairs.Pair{I: 0, J: 1}, Estimate: 0.5},
		{Pair: pairs.Pair{I: 0, J: 9}, Estimate: 0.25},
		{Pair: pairs.Pair{I: 3, J: 4}, Estimate: 1},
		{Pair: pairs.Pair{I: 100, J: 40000}, Estimate: 0.333},
	}
	var b bytes.Buffer
	encodeScoredRun(&b, cand)
	got, err := decodeScoredRun(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cand) {
		t.Fatalf("%d candidates, want %d", len(got), len(cand))
	}
	for i := range cand {
		if got[i].Pair != cand[i].Pair || got[i].Estimate != cand[i].Estimate {
			t.Fatalf("candidate %d = %+v, want %+v", i, got[i], cand[i])
		}
	}
}

func TestVerifyResultRoundTrip(t *testing.T) {
	in := &verifyResult{
		Touches: 1 << 40, PackedWords: 96, PackedBatches: 2,
		Indices: []int{0, 3, 4, 17}, Exact: []float64{0.9, 0.5, 0.41, 1},
	}
	got, err := decodeVerifyResult(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip: %+v, want %+v", got, in)
	}
	// A work counter beyond what a pass can do, or a survivor count
	// beyond the payload, is rejected before anything is sized by it.
	for _, bad := range [][]byte{
		binary.AppendUvarint(nil, 1<<63),
		append(binary.AppendUvarint([]byte{0, 0, 0}, 1<<30), 0),
	} {
		if v, err := decodeVerifyResult(bad); err == nil {
			t.Errorf("hostile verify result %x accepted: %+v", bad, v)
		}
	}
}

// TestCandResultRoundTrip: the one candidate result every scheme
// ships — work count, key-sorted pairs, estimate bits (zero for band
// collisions) — survives the wire, the empty range included.
func TestCandResultRoundTrip(t *testing.T) {
	for _, in := range []*candResult{
		{Work: 17, Cand: []pairs.Scored{
			{Pair: pairs.Pair{I: 1, J: 2}, Estimate: 0.5}, {Pair: pairs.Pair{I: 1, J: 5}}, {Pair: pairs.Pair{I: 4, J: 9}, Estimate: 1},
		}},
		{Work: 0, Cand: nil},
	} {
		got, err := decodeCandResult(encoded(in.encode()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Work != in.Work || len(got.Cand) != len(in.Cand) {
			t.Fatalf("cand result %+v, want %+v", got, in)
		}
		for i, p := range in.Cand {
			if got.Cand[i] != p {
				t.Fatalf("candidate %d = %+v, want %+v", i, got.Cand[i], p)
			}
		}
	}
}

func TestJobRoundTrip(t *testing.T) {
	rj := &job{Kind: jobFold, Lo: 10, Hi: 250}
	got, err := decodeJob(encoded(rj.encode()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != rj.Kind || got.Lo != rj.Lo || got.Hi != rj.Hi {
		t.Fatalf("job = %+v, want %+v", got, rj)
	}
	vj := &job{Kind: jobVerify, Cand: []pairs.Scored{{Pair: pairs.Pair{I: 2, J: 7}, Estimate: 0.5}}}
	got, err = decodeJob(encoded(vj.encode()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != jobVerify || len(got.Cand) != 1 || got.Cand[0] != vj.Cand[0] {
		t.Fatalf("verify job = %+v, want %+v", got, vj)
	}
	if _, err := decodeJob([]byte{byte(jobFold), 5, 2}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestSplitRange(t *testing.T) {
	for _, tc := range []struct{ n, count, jobs int }{
		{100, 4, 4}, {3, 8, 3}, {0, 4, 1}, {1, 1, 1},
	} {
		b := splitRange(tc.n, tc.count)
		if len(b)-1 != tc.jobs {
			t.Errorf("splitRange(%d,%d): %d jobs, want %d", tc.n, tc.count, len(b)-1, tc.jobs)
		}
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Errorf("splitRange(%d,%d) = %v: bad bounds", tc.n, tc.count, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Errorf("splitRange(%d,%d) = %v: not monotone", tc.n, tc.count, b)
			}
		}
	}
}

// FuzzDistFrame feeds arbitrary bytes to the frame reader and every
// payload decoder — the one wire format that faces another process.
// Nothing may panic, and whatever a decoder accepts must hold no more
// elements than its payload can pay for: counts are checked against the
// payload before they size a slice.
func FuzzDistFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, typ, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	cand := []pairs.Scored{{Pair: pairs.Pair{I: 1, J: 4}, Estimate: 0.5}, {Pair: pairs.Pair{I: 2, J: 7}, Estimate: 0.25}}
	f.Add(frame(frameHello, (&hello{Path: "/tmp/d.arows", Params: candidate.Params{Algo: fold.MinLSH, K: 50, R: 5, L: 10, Seed: 7, Threshold: 0.5, Delta: 0.1}}).encode()))
	f.Add(frame(frameJob, encoded((&job{Kind: jobFold, Lo: 10, Hi: 250}).encode())))
	f.Add(frame(frameJob, encoded((&job{Kind: jobVerify, Cand: cand}).encode())))
	f.Add(frame(frameJob, encoded((&job{Kind: jobCand, Lo: 3, Hi: 8}).encode())))
	f.Add(frame(frameResult, encoded((&candResult{Work: 99, Cand: cand}).encode())))
	f.Add(frame(frameResult, encoded((&candResult{Work: 17, Cand: []pairs.Scored{{Pair: pairs.Pair{I: 1, J: 2}}, {Pair: pairs.Pair{I: 4, J: 9}}}}).encode())))
	f.Add(frame(frameResult, encoded((&sampleResult{Inspected: 12, Keys: []uint64{3, 9, 1 << 33}, Counts: []int64{1, 2, 3}}).encode())))
	f.Add(frame(frameResult, (&verifyResult{Touches: 4100, PackedWords: 12, PackedBatches: 1, Indices: []int{0, 3, 4}, Exact: []float64{1, 0.5, 0.75}}).encode()))
	f.Add(frame(frameResult, (&verifyResult{Touches: 7}).encode()))
	// Fold-state frames: a fold job's result and the merged broadcast, in
	// each fold's snapshot format, over the shape readState checks below.
	for _, algo := range []Algo{MinHash, fold.KMinHash, fold.BPS} {
		fd, _ := fold.For(algo)
		st, err := fd.New(fuzzCols, fuzzHello.K, fuzzHello.Seed)
		if err != nil {
			f.Fatal(err)
		}
		st.FoldRow(0, []int32{0, 2})
		st.FoldRow(1, []int32{2})
		var snap bytes.Buffer
		if err := st.Snapshot(&snap); err != nil {
			f.Fatal(err)
		}
		f.Add(frame(frameState, snap.Bytes()))
		f.Add(frame(frameResult, snap.Bytes()))
	}
	f.Add([]byte{frameResult, 0xff, 0xff, 0xff, 0x3f})
	f.Add([]byte{frameState, 0x00, 0x00, 0x00, 0x40, 3, 2, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := data
		// Whatever length the header declares, readFrame only allocates
		// ahead of the bytes that arrive by a bounded chunk.
		if _, payload, err := readFrame(bytes.NewReader(data)); err == nil {
			if len(payload) > len(data)-5 {
				t.Fatalf("readFrame returned %d payload bytes from %d", len(payload), len(data))
			}
			p = payload
		}
		// Every key of an accepted run costs at least a bit of payload.
		maxKeys := 8*len(p) + 1
		if h, err := decodeHello(p); err == nil && len(h.Path) > len(p) {
			t.Fatalf("hello path of %d bytes from %d", len(h.Path), len(p))
		}
		if j, err := decodeJob(p); err == nil && len(j.Cand) > maxKeys {
			t.Fatalf("job with %d candidates from %d bytes", len(j.Cand), len(p))
		}
		// The one candidate result: accepted means bounded by the payload,
		// keys strictly ascending (what the verify split relies on), and a
		// re-encode that decodes to the same result.
		if c, err := decodeCandResult(p); err == nil {
			if len(c.Cand) > maxKeys {
				t.Fatalf("cand result with %d candidates from %d bytes", len(c.Cand), len(p))
			}
			for i := 1; i < len(c.Cand); i++ {
				if c.Cand[i-1].Key() >= c.Cand[i].Key() {
					t.Fatalf("cand result keys not strictly ascending at %d", i)
				}
			}
			again, err := decodeCandResult(encoded(c.encode()))
			if err != nil || again.Work != c.Work || len(again.Cand) != len(c.Cand) {
				t.Fatalf("accepted cand result does not round-trip: %v", err)
			}
			for i := range c.Cand {
				if again.Cand[i].Pair != c.Cand[i].Pair || math.Float64bits(again.Cand[i].Estimate) != math.Float64bits(c.Cand[i].Estimate) {
					t.Fatalf("cand result entry %d changed across a round trip", i)
				}
			}
		}
		if s, err := decodeSampleResult(p); err == nil && (len(s.Keys) > maxKeys || len(s.Counts) != len(s.Keys)) {
			t.Fatalf("sample result with %d keys, %d counts from %d bytes", len(s.Keys), len(s.Counts), len(p))
		}
		if v, err := decodeVerifyResult(p); err == nil && (len(v.Indices) > len(p) || len(v.Exact) != len(v.Indices)) {
			t.Fatalf("verify result with %d indices, %d values from %d bytes", len(v.Indices), len(v.Exact), len(p))
		}
		// A fold state is accepted only in the run's shape, and a supports
		// vector never holds more counts than its payload has bytes.
		for _, algo := range []Algo{MinHash, fold.KMinHash, fold.BPS} {
			fd, _ := fold.For(algo)
			st, err := readState(fd, fuzzHello, fuzzCols, p)
			if err != nil {
				continue
			}
			if st.NumCols() != fuzzCols || fuzzCols > len(p) {
				t.Fatalf("%v: state of %d columns from %d bytes", algo, st.NumCols(), len(p))
			}
			var again bytes.Buffer
			if err := st.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if _, err := readState(fd, fuzzHello, fuzzCols, again.Bytes()); err != nil {
				t.Fatalf("%v: accepted state does not round-trip: %v", algo, err)
			}
		}
	})
}

// The shape FuzzDistFrame's fold states are read under.
const fuzzCols = 3

var fuzzHello = &hello{Params: candidate.Params{K: 2, Seed: 9}}

// TestReadFrameAllocatesAsBytesArrive: a 5-byte header declaring the
// largest payload, followed by almost nothing, fails as truncated
// without the reader having sized a buffer from the declaration.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	data := []byte{frameResult, 0, 0, 0, 0, 1, 2, 3}
	binary.LittleEndian.PutUint32(data[1:], maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("readFrame allocated %d bytes for a 3-byte payload", grew)
	}
	// A payload the buffer has to grow for several times arrives whole.
	big := bytes.Repeat([]byte{0xab}, 2<<20+17)
	var b bytes.Buffer
	if err := writeFrame(&b, frameState, big); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&b)
	if err != nil || typ != frameState || !bytes.Equal(got, big) {
		t.Fatalf("large frame: typ %q, %d bytes, err %v", typ, len(got), err)
	}
}

// BenchmarkReadFrame reads a frame the size of stream-sig's merged MH
// fold state (16 896 columns, k = 64): growing the buffer from the bytes
// that arrive must stay near one allocation and one copy of the payload.
func BenchmarkReadFrame(b *testing.B) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameState, bytes.Repeat([]byte{0xab}, 36+16896*64*8)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	for i := 0; i < b.N; i++ {
		if _, _, err := readFrame(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkerRejectsBadCandJobs drives WorkerMain over in-memory pipes:
// a candidate job before any state broadcast, and one whose range lies
// outside the kernel's units, are permanent errors — an 'E' frame, not
// a crash or a reply.
func TestWorkerRejectsBadCandJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.arows")
	m := testutil.Must(matrix.New(4, [][]int32{{0, 1}, {0, 1, 2}, {3}}))
	if err := matrix.SaveRowBinary(path, m.Stream()); err != nil {
		t.Fatal(err)
	}
	h := &hello{Path: path, Params: candidate.Params{Algo: MinHash, K: 4, R: 2, L: 2, SampleBudget: 1, Seed: 1, Threshold: 0.5, Delta: 0.2}}
	fd, _ := fold.For(MinHash)
	st, err := fd.New(3, h.K, h.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st.FoldRow(0, []int32{0, 1})
	var state bytes.Buffer
	if err := st.Snapshot(&state); err != nil {
		t.Fatal(err)
	}
	for name, frames := range map[string][][]byte{
		"before state": {encoded((&job{Kind: jobCand, Lo: 0, Hi: 3}).encode())},
		"out of range": {state.Bytes(), encoded((&job{Kind: jobCand, Lo: 0, Hi: 4}).encode())},
	} {
		var in, out bytes.Buffer
		if err := writeFrame(&in, frameHello, h.encode()); err != nil {
			t.Fatal(err)
		}
		for i, payload := range frames {
			typ := byte(frameJob)
			if i < len(frames)-1 {
				typ = frameState
			}
			if err := writeFrame(&in, typ, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := WorkerMain(&in, &out); err == nil {
			t.Errorf("%s: worker served the job", name)
		}
		if typ, _, err := readFrame(&out); err != nil || typ != frameReady {
			t.Fatalf("%s: handshake answered %q, %v", name, typ, err)
		}
		if typ, msg, err := readFrame(&out); err != nil || typ != frameError {
			t.Errorf("%s: job answered %q %q, %v; want an error frame", name, typ, msg, err)
		}
	}
}

// encoded is the payload of an encode that must not fail.
func encoded(p []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return p
}
