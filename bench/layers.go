package main

// Every call the benchmark makes into internal/* outside the timed
// rounds lives in this file, and only through entry points ROADMAP item
// B keeps: the FoldState API and Merge, RowSortMH, HashCountKMH,
// lsh.Candidates, bps.Supports/Sample, verify.Exact/ExactPacked/
// ExactBudgeted and matrix.OpenFileSource/SaveRowBinary/
// SaveRowCompressed. The timed rounds use only the root package,
// dist.Run and serve, so deleting the other entry points cannot break
// the gate; it can only break this file.

import (
	"io"
	"math/bits"
	"os"
	"sort"
	"time"

	"assocmine"
	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/kminhash"
	"assocmine/internal/lsh"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// sysSeed is the system's own Config.Seed. The benchmark's -seed drives
// only the input generators.
const sysSeed = 1

// sysDelta is Config.Delta's default, which the hand-composed segments
// must repeat to form the same candidate cutoff.
const sysDelta = 0.2

type rowSource = matrix.RowSource

func saveARows(path string, src rowSource) error  { return matrix.SaveRowBinary(path, src) }
func saveCARows(path string, src rowSource) error { return matrix.SaveRowCompressed(path, src) }

func openSource(path string) (*matrix.FileSource, error) { return matrix.OpenFileSource(path) }

func memSource(d *assocmine.Dataset) rowSource { return d.Matrix().Stream() }

// transcode re-encodes an .arows file as .carows — the encode half of
// the compressed format, and stream-sig's set-up.
func transcode(from, to string) error {
	src, err := openSource(from)
	if err != nil {
		return err
	}
	return saveCARows(to, src)
}

// floorRead copies the file to io.Discard: the sequential-read floor the
// decoders are measured against (page cache warm).
func floorRead(path string) (bytes int64, secs float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	t := time.Now()
	n, err := io.Copy(io.Discard, f)
	return n, time.Since(t).Seconds(), err
}

// decodeOnly scans the file with an empty callback: the decoder alone.
func decodeOnly(path string) (bytes int64, err error) {
	src, err := openSource(path)
	if err != nil {
		return 0, err
	}
	err = src.Scan(func(int, []int32) error { return nil })
	return src.BytesRead(), err
}

// countingWriter measures a snapshot's size without keeping it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// scanHalves scans src once, giving the rows before the middle row to
// first and the rest to second.
func scanHalves(src rowSource, first, second func(row int, cols []int32)) error {
	half := src.NumRows() / 2
	return src.Scan(func(row int, cols []int32) error {
		if row < half {
			first(row, cols)
		} else {
			second(row, cols)
		}
		return nil
	})
}

// mhFold is phase 1 of MH and M-LSH by hand: the rows go to two fold
// states split at the middle row, which are then merged, so the pass
// costs one fold of every row plus one Merge — what a two-shard run
// (goroutines or dist workers) does — and Finish yields what the
// end-to-end run computed.
type mhFold struct {
	sig           *minhash.Signatures
	mergeS        float64
	snapshotS     float64
	snapshotBytes int64
}

func foldMH(src rowSource, k int) (*mhFold, error) {
	a, err := minhash.NewFoldState(src.NumCols(), k, sysSeed)
	if err != nil {
		return nil, err
	}
	b, err := minhash.NewFoldState(src.NumCols(), k, sysSeed)
	if err != nil {
		return nil, err
	}
	if err := scanHalves(src, a.FoldRow, b.FoldRow); err != nil {
		return nil, err
	}
	out := &mhFold{}
	t := time.Now()
	if err := minhash.Merge(a, b); err != nil {
		return nil, err
	}
	out.mergeS = time.Since(t).Seconds()
	out.sig = a.Finish()
	var cw countingWriter
	t = time.Now()
	if err := a.Snapshot(&cw); err != nil {
		return nil, err
	}
	out.snapshotS, out.snapshotBytes = time.Since(t).Seconds(), cw.n
	return out, nil
}

// kmhFold is phase 1 of K-MH by hand, split and merged like mhFold.
type kmhFold struct {
	sk      *kminhash.Sketches
	mergeS  float64
	updates int64
	cells   int64
}

func foldKMH(src rowSource, k int) (*kmhFold, error) {
	a, err := kminhash.NewFoldState(src.NumCols(), k, sysSeed)
	if err != nil {
		return nil, err
	}
	b, err := kminhash.NewFoldState(src.NumCols(), k, sysSeed)
	if err != nil {
		return nil, err
	}
	if err := scanHalves(src, a.FoldRow, b.FoldRow); err != nil {
		return nil, err
	}
	out := &kmhFold{}
	t := time.Now()
	if err := kminhash.Merge(a, b); err != nil {
		return nil, err
	}
	out.mergeS = time.Since(t).Seconds()
	out.updates = a.Updates()
	out.sk = a.Finish()
	for _, s := range out.sk.Sigs {
		out.cells += int64(len(s))
	}
	return out, nil
}

// cands is a candidate list between phase 2 and phase 3, with the
// phase's own work count.
type cands struct {
	list []pairs.Scored
	work int64 // counter increments, bucket pairs, or pairs inspected
}

func rowSortMH(f *mhFold, threshold float64) (cands, error) {
	c, st, err := candidate.RowSortMH(f.sig, (1-sysDelta)*threshold)
	return cands{c, st.Increments}, err
}

func hashCountKMH(f *kmhFold, threshold float64) (cands, error) {
	cutoff := (1 - sysDelta) * threshold
	c, st, err := candidate.HashCountKMH(f.sk, candidate.KMHOptions{BiasedCutoff: cutoff / 2, UnbiasedCutoff: cutoff})
	return cands{c, st.Increments}, err
}

func bandLSH(f *mhFold, r, l int) (cands, error) {
	set, st, err := lsh.Candidates(f.sig, r, l)
	if err != nil {
		return cands{}, err
	}
	out := cands{work: st.BucketPairs}
	for _, p := range set.Slice() {
		out.list = append(out.list, pairs.Scored{Pair: p})
	}
	return out, nil
}

func bpsSupports(src rowSource) ([]int64, error) { return bps.Supports(src) }

type bpsStats struct{ inspected, accepts, dups int64 }

func bpsSample(src rowSource, sup []int64, threshold float64, budget int) (cands, bpsStats, error) {
	c, st, err := bps.Sample(src, sup, bps.Options{
		Threshold: threshold, Delta: sysDelta, Budget: budget, Seed: sysSeed, Workers: 1,
	})
	return cands{c, st.Inspected}, bpsStats{st.Inspected, st.Accepts, st.Dups}, err
}

// verified is phase 3's output in the root package's pair type, sorted
// by (I, J) so lists from different drivers compare element by element.
type verified struct {
	pairs        []assocmine.Pair
	touches      int64
	packedWords  int64
	packedBatch  int64
	spillRuns    int64
	spillBytes   int64
	candidatesIn int
}

func toVerified(in cands, out []pairs.Scored, st verify.Stats) verified {
	v := verified{
		touches: st.Touches, packedWords: st.PackedWords, packedBatch: st.PackedBatches,
		spillRuns: st.SpillRuns, spillBytes: st.SpillBytes, candidatesIn: len(in.list),
	}
	for _, p := range out {
		v.pairs = append(v.pairs, assocmine.Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate, Similarity: p.Exact})
	}
	sortPairs(v.pairs)
	return v
}

func sortPairs(ps []assocmine.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}

func verifyPacked(src rowSource, c cands, threshold float64) (verified, error) {
	out, st, err := verify.ExactPacked(src, c.list, threshold, verify.PackedOptions{Workers: 1})
	return toVerified(c, out, st), err
}

func verifyScalar(src rowSource, c cands, threshold float64) (verified, error) {
	out, st, err := verify.Exact(src, c.list, threshold)
	return toVerified(c, out, st), err
}

func verifyBudgeted(src rowSource, c cands, threshold float64, budget int64) (verified, error) {
	out, st, err := verify.ExactBudgeted(src, c.list, threshold, verify.Budget{Bytes: budget}, 1, nil)
	return toVerified(c, out, st), err
}

// every returns each stride-th candidate: the sample the scalar oracle
// is timed on when the full list would take many seconds.
func (c cands) every(stride int) cands {
	out := cands{}
	for i := 0; i < len(c.list); i += stride {
		out.list = append(out.list, c.list[i])
	}
	return out
}

var popcountSink int

// popcountFloor runs a bare AND + OnesCount64 loop over the given number
// of words on a cache-resident buffer: the floor under the packed kernel.
func popcountFloor(words int64) float64 {
	const n = 1 << 12
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(i)*0x9e3779b97f4a7c15, uint64(i)*0xbf58476d1ce4e5b9
	}
	t := time.Now()
	sum := 0
	for done := int64(0); done < words; done += n {
		for i := range a {
			sum += bits.OnesCount64(a[i]&b[i]) + bits.OnesCount64(a[i]|b[i])
		}
	}
	popcountSink = sum
	return time.Since(t).Seconds()
}
