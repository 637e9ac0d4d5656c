// Package dist is the driver's process-pool executor. Run hands
// internal/driver the coordinator as its Executor, so a distributed run
// walks the single-process run's steps — spans, counters, SkipVerify,
// final sort — while each phase body runs as jobs on N worker
// subprocesses over stdin/stdout pipes: row ranges fold (snapshots merge
// by the fold's exact Merge), kernel column ranges generate candidates
// (which partition the pairs, so they concatenate), BPS row ranges
// sample (tallies add: accept decisions are pure (seed,row,pair) hashes)
// and candidate ranges verify. At a fixed seed the pairs are bit-identical to the
// single-process run's. The partition-dependent counters are the
// pool's: packed_words and packed_batches sum over the verify jobs, and
// shards_streamed, data_passes and rows_scanned stay absent (a worker
// scans its range on one goroutine, and its reads never cross the pipe).
//
// Wire protocol. Each direction is a stream of frames:
//
//	[1 byte type][uint32 LE payload length][payload]
//
// The coordinator opens with a hello frame ('H') carrying the dataset
// path and mining parameters; the worker opens the dataset itself
// (same machine, shared file system — only sketches, candidate runs
// and verdicts cross the pipe, never rows) and answers ready ('Y')
// with the dimensions it saw, which must match the coordinator's.
// Phases then proceed as state frames ('S': the merged phase-1 fold
// state, in the snapshot format of the algorithm's fold — AMF1, KMF1 or
// the BPS supports vector) and job frames ('J') answered by result
// frames ('R'; a fold job's result is its range's fold-state
// snapshot). A worker that hits a permanent fault answers 'E' with a
// message, aborting the run; 'Q' asks the worker to exit. Candidate
// sets travel as Rice-coded sorted pair-key runs — the same codec
// family as ".carows" shards — with raw float64 estimate bits
// alongside.
package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"assocmine/internal/bitpack"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/pairs"
)

// protoVersion is bumped whenever the frame layout or the meaning of a
// field changes; hello carries it and workers reject mismatches. 5: an
// M-LSH candidate job's range names columns, no longer bands.
const protoVersion = 5

// Frame types.
const (
	frameHello  = 'H' // coordinator → worker: version + parameters
	frameReady  = 'Y' // worker → coordinator: dataset dimensions
	frameState  = 'S' // coordinator → worker: broadcast phase input
	frameJob    = 'J' // coordinator → worker: one work item
	frameResult = 'R' // worker → coordinator: job output
	frameError  = 'E' // worker → coordinator: permanent failure
	frameQuit   = 'Q' // coordinator → worker: clean shutdown
)

// maxFramePayload bounds a frame before allocation; a corrupt length
// field must not size a buffer.
const maxFramePayload = 1 << 30

// writeFrame emits one frame. The writer is typically buffered; the
// caller flushes after each logical message.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("dist: frame payload %d exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. The declared length is bounded, and the
// payload buffer is sized from the bytes that have actually arrived —
// 64 KiB to start, then at most 16 times what it holds — so a corrupt
// or hostile 5-byte header cannot size a gigabyte allocation, while the
// regrowth copies of a real multi-megabyte snapshot stay a fraction of
// it.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("dist: frame payload %d exceeds limit", n)
	}
	payload := make([]byte, 0, min(n, 64<<10))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(n, 16*cap(payload))), payload...)
		}
		m, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+m]
		if err != nil {
			return 0, nil, fmt.Errorf("dist: truncated frame: %w", err)
		}
	}
	return hdr[0], payload, nil
}

// Algo selects the mining scheme a distributed run executes, in fold's
// one numbering (the root Algorithm's): the schemes with a phase-1 fold
// (MH, K-MH, M-LSH, BPS), whose candidate phases partition cleanly.
// Brute force, a-priori, H-LSH and §6's rules remain single-process.
type Algo = fold.Algo

// MinHash is the MH scheme.
const MinHash = fold.MinHash

// hello carries the dataset path and the run's phase-2 parameter set
// from coordinator to worker. Both sides derive every downstream
// constant (cutoffs, band layouts, sampling scales) from the set by the
// same function — candidate.For, Params.BPS — so they cannot drift.
type hello struct {
	candidate.Params
	Path string
}

func (h *hello) encode() []byte {
	var b bytes.Buffer
	b.WriteByte(protoVersion)
	b.WriteByte(byte(h.Algo))
	putUvarint(&b, uint64(len(h.Path)))
	b.WriteString(h.Path)
	putUvarint(&b, uint64(h.K))
	putUvarint(&b, uint64(h.R))
	putUvarint(&b, uint64(h.L))
	putUvarint(&b, uint64(h.SampleBudget))
	putU64(&b, h.Seed)
	putU64(&b, math.Float64bits(h.Threshold))
	putU64(&b, math.Float64bits(h.Delta))
	return b.Bytes()
}

func decodeHello(p []byte) (*hello, error) {
	r := bytes.NewReader(p)
	ver, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	if ver != protoVersion {
		return nil, fmt.Errorf("dist: protocol version %d, worker speaks %d", ver, protoVersion)
	}
	algo, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	h := &hello{Params: candidate.Params{Algo: Algo(algo)}}
	pathLen, err := getUvarint(r, 1<<16)
	if err != nil {
		return nil, fmt.Errorf("dist: hello path: %w", err)
	}
	path := make([]byte, pathLen)
	if _, err := io.ReadFull(r, path); err != nil {
		return nil, fmt.Errorf("dist: hello path: %w", err)
	}
	h.Path = string(path)
	for _, dst := range []*int{&h.K, &h.R, &h.L, &h.SampleBudget} {
		v, err := getUvarint(r, 1<<31)
		if err != nil {
			return nil, fmt.Errorf("dist: hello: %w", err)
		}
		*dst = int(v)
	}
	if h.Seed, err = getU64(r); err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	tb, err := getU64(r)
	if err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	db, err := getU64(r)
	if err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	h.Threshold = math.Float64frombits(tb)
	h.Delta = math.Float64frombits(db)
	return h, nil
}

// ready answers hello with the dimensions the worker's own open saw.
type ready struct {
	Rows, Cols int
}

func (y *ready) encode() []byte {
	var b bytes.Buffer
	putUvarint(&b, uint64(y.Rows))
	putUvarint(&b, uint64(y.Cols))
	return b.Bytes()
}

func decodeReady(p []byte) (*ready, error) {
	r := bytes.NewReader(p)
	rows, err := getUvarint(r, 1<<31)
	if err != nil {
		return nil, fmt.Errorf("dist: ready: %w", err)
	}
	cols, err := getUvarint(r, 1<<31)
	if err != nil {
		return nil, fmt.Errorf("dist: ready: %w", err)
	}
	return &ready{Rows: int(rows), Cols: int(cols)}, nil
}

// Job kinds.
type jobKind uint8

const (
	jobFold   jobKind = 1 // fold rows [Lo,Hi) → fold-state snapshot
	jobSample jobKind = 2 // BPS-sample rows [Lo,Hi) → pair counts
	jobCand   jobKind = 3 // generate candidates of kernel units [Lo,Hi)
	jobVerify jobKind = 4 // exact-verify the attached candidates
)

// job is one unit of distributable work.
type job struct {
	Kind   jobKind
	Lo, Hi int            // row range, or unit range of the phase-2 kernel
	Cand   []pairs.Scored // jobVerify: candidates sorted by pair key
}

func (j *job) encode() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(byte(j.Kind))
	if j.Kind == jobVerify {
		err := encodeScoredRun(&b, j.Cand)
		return b.Bytes(), err
	}
	putUvarint(&b, uint64(j.Lo))
	putUvarint(&b, uint64(j.Hi))
	return b.Bytes(), nil
}

func decodeJob(p []byte) (*job, error) {
	r := bytes.NewReader(p)
	kind, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: job: %w", err)
	}
	j := &job{Kind: jobKind(kind)}
	switch j.Kind {
	case jobVerify:
		if j.Cand, err = decodeScoredRun(r); err != nil {
			return nil, fmt.Errorf("dist: verify job: %w", err)
		}
	case jobFold, jobSample, jobCand:
		lo, err := getUvarint(r, 1<<31)
		if err != nil {
			return nil, fmt.Errorf("dist: job range: %w", err)
		}
		hi, err := getUvarint(r, 1<<31)
		if err != nil {
			return nil, fmt.Errorf("dist: job range: %w", err)
		}
		j.Lo, j.Hi = int(lo), int(hi)
		if j.Lo > j.Hi {
			return nil, fmt.Errorf("dist: job range [%d,%d) inverted", j.Lo, j.Hi)
		}
	default:
		return nil, fmt.Errorf("dist: unknown job kind %d", kind)
	}
	return j, nil
}

// readState decodes a fold-state snapshot — a fold job's result on the
// coordinator, the merged broadcast on a worker — and checks it against
// the run's shape, so a vector of the wrong length (or a sketch folded
// under another k or seed) is rejected before anything merges it.
func readState(f fold.Fold, h *hello, cols int, p []byte) (fold.State, error) {
	st, err := f.Read(bytes.NewReader(p), cols, h.K, h.Seed)
	if err != nil {
		return nil, fmt.Errorf("dist: decoding fold state: %w", err)
	}
	return st, nil
}

// candResult is the output of a jobCand, whatever the scheme: the
// range's distinct candidates sorted by pair key plus the kernel's work
// measure for the range (counter increments or bucket pairs).
type candResult struct {
	Work int64
	Cand []pairs.Scored
}

func (c *candResult) encode() ([]byte, error) {
	var b bytes.Buffer
	putUvarint(&b, uint64(c.Work))
	err := encodeScoredRun(&b, c.Cand)
	return b.Bytes(), err
}

func decodeCandResult(p []byte) (*candResult, error) {
	r := bytes.NewReader(p)
	work, err := getUvarint(r, 1<<62)
	if err != nil {
		return nil, fmt.Errorf("dist: cand result: %w", err)
	}
	cand, err := decodeScoredRun(r)
	if err != nil {
		return nil, fmt.Errorf("dist: cand result: %w", err)
	}
	return &candResult{Work: int64(work), Cand: cand}, nil
}

// sampleResult is the output of a jobSample: the range's accepted
// counts (keys ascending) and the inspected-draw tally.
type sampleResult struct {
	Inspected int64
	Keys      []uint64
	Counts    []int64
}

func (s *sampleResult) encode() ([]byte, error) {
	var b bytes.Buffer
	putUvarint(&b, uint64(s.Inspected))
	if err := encodeKeyRun(&b, s.Keys); err != nil {
		return nil, err
	}
	for _, c := range s.Counts {
		putUvarint(&b, uint64(c))
	}
	return b.Bytes(), nil
}

func decodeSampleResult(p []byte) (*sampleResult, error) {
	r := bytes.NewReader(p)
	insp, err := getUvarint(r, 1<<62)
	if err != nil {
		return nil, fmt.Errorf("dist: sample result: %w", err)
	}
	keys, err := decodeKeyRun(r)
	if err != nil {
		return nil, fmt.Errorf("dist: sample result: %w", err)
	}
	counts := make([]int64, len(keys))
	for i := range counts {
		v, err := getUvarint(r, 1<<62)
		if err != nil {
			return nil, fmt.Errorf("dist: sample count %d: %w", i, err)
		}
		counts[i] = int64(v)
	}
	return &sampleResult{Inspected: int64(insp), Keys: keys, Counts: counts}, nil
}

// verifyResult is the output of a jobVerify: the pass's work counters
// (additive over the coordinator's candidate partition), then the
// surviving candidates as ascending indices into the job's candidate
// list plus their exact similarities.
type verifyResult struct {
	Touches, PackedWords, PackedBatches int64
	Indices                             []int
	Exact                               []float64
}

func (v *verifyResult) encode() []byte {
	var b bytes.Buffer
	putUvarint(&b, uint64(v.Touches))
	putUvarint(&b, uint64(v.PackedWords))
	putUvarint(&b, uint64(v.PackedBatches))
	putUvarint(&b, uint64(len(v.Indices)))
	prev := -1
	for _, idx := range v.Indices {
		putUvarint(&b, uint64(idx-prev-1))
		prev = idx
	}
	for _, e := range v.Exact {
		putU64(&b, math.Float64bits(e))
	}
	return b.Bytes()
}

func decodeVerifyResult(p []byte) (*verifyResult, error) {
	r := bytes.NewReader(p)
	v := &verifyResult{}
	for _, work := range []*int64{&v.Touches, &v.PackedWords, &v.PackedBatches} {
		w, err := getUvarint(r, 1<<62)
		if err != nil {
			return nil, fmt.Errorf("dist: verify result: %w", err)
		}
		*work = int64(w)
	}
	n, err := getUvarint(r, 1<<31)
	if err != nil {
		return nil, fmt.Errorf("dist: verify result: %w", err)
	}
	if int64(n) > int64(len(p)) {
		return nil, fmt.Errorf("dist: verify result count %d exceeds payload", n)
	}
	v.Indices, v.Exact = make([]int, n), make([]float64, n)
	prev := -1
	for i := range v.Indices {
		d, err := getUvarint(r, 1<<31)
		if err != nil {
			return nil, fmt.Errorf("dist: verify index %d: %w", i, err)
		}
		v.Indices[i] = prev + 1 + int(d)
		prev = v.Indices[i]
	}
	for i := range v.Exact {
		bits, err := getU64(r)
		if err != nil {
			return nil, fmt.Errorf("dist: verify exact %d: %w", i, err)
		}
		v.Exact[i] = math.Float64frombits(bits)
	}
	return v, nil
}

// encodeKeyRun writes a strictly ascending key sequence as a Rice-coded
// run: uvarint count, absolute first key, the Rice parameter chosen by
// exact cost search, then delta-1 codes, byte-aligned — the candidate
// analogue of the ".carows" row codec. It fails when a delta's Rice
// code would be longer than the decoder accepts.
func encodeKeyRun(b *bytes.Buffer, keys []uint64) error {
	putUvarint(b, uint64(len(keys)))
	if len(keys) == 0 {
		return nil
	}
	putUvarint(b, keys[0])
	deltas := make([]uint64, len(keys)-1)
	for i := 1; i < len(keys); i++ {
		deltas[i-1] = keys[i] - keys[i-1] - 1
	}
	k, _ := bitpack.BestRiceK(deltas)
	b.WriteByte(byte(k))
	pw := bitpack.NewWriter(b)
	for _, d := range deltas {
		pw.WriteRice(d, k)
	}
	if err := pw.Flush(); err != nil {
		return fmt.Errorf("dist: key run: %w", err)
	}
	return nil
}

// decodeKeyRun reverses encodeKeyRun, validating strict ascent (which
// the delta-1 coding guarantees structurally) and bounding the count
// against the remaining payload.
func decodeKeyRun(r *bytes.Reader) ([]uint64, error) {
	n, err := getUvarint(r, 1<<31)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Each key past the first costs at least one bit on the wire.
	if int64(n-1) > int64(r.Len())*8 {
		return nil, fmt.Errorf("key run count %d exceeds payload", n)
	}
	keys := make([]uint64, n)
	if keys[0], err = binary.ReadUvarint(r); err != nil {
		return nil, fmt.Errorf("first key: %w", err)
	}
	kb, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("rice parameter: %w", err)
	}
	if kb > 63 {
		return nil, fmt.Errorf("rice parameter %d out of range", kb)
	}
	// The bit reader borrows a bufio window; what bufio read ahead goes
	// back to r once the run is aligned.
	br := bufio.NewReader(r)
	pr := bitpack.NewReader(br)
	prev := keys[0]
	for i := uint64(1); i < n; i++ {
		d, err := pr.ReadRice(uint(kb))
		if err != nil {
			return nil, fmt.Errorf("key %d: %w", i, err)
		}
		next := prev + 1 + d
		if next <= prev {
			return nil, fmt.Errorf("key %d overflows", i)
		}
		keys[i] = next
		prev = next
	}
	pr.Align()
	if _, err := r.Seek(-int64(br.Buffered()), io.SeekCurrent); err != nil {
		return nil, err
	}
	return keys, nil
}

// encodeScoredRun writes candidates sorted by pair key (pairs.Pair.Key
// is the wire key): a key run plus raw float64 estimate bits.
func encodeScoredRun(b *bytes.Buffer, cand []pairs.Scored) error {
	keys := make([]uint64, len(cand))
	for i, p := range cand {
		keys[i] = p.Key()
	}
	if err := encodeKeyRun(b, keys); err != nil {
		return err
	}
	for _, p := range cand {
		putU64(b, math.Float64bits(p.Estimate))
	}
	return nil
}

func decodeScoredRun(r *bytes.Reader) ([]pairs.Scored, error) {
	keys, err := decodeKeyRun(r)
	if err != nil {
		return nil, err
	}
	out := make([]pairs.Scored, len(keys))
	for i, k := range keys {
		out[i].Pair = pairs.FromKey(k)
		bits, err := getU64(r)
		if err != nil {
			return nil, fmt.Errorf("estimate %d: %w", i, err)
		}
		out[i].Estimate = math.Float64frombits(bits)
	}
	return out, nil
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

// getUvarint reads a uvarint and rejects values above limit — length
// and count fields must never size an allocation unchecked.
func getUvarint(r *bytes.Reader, limit uint64) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if v > limit {
		return 0, fmt.Errorf("value %d exceeds limit %d", v, limit)
	}
	return v, nil
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func getU64(r *bytes.Reader) (uint64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(tmp[:]), nil
}
