// Package fold is phase 1 of the paper's template (§2) as one contract:
// a sequential pass folds rows into a small mergeable summary. The MH
// fold (minhash.FoldState, merge is min), the K-MH fold
// (kminhash.FoldState, merge is the bounded multiset union) and the BPS
// support fold (bps.FoldState, merge is +) implement State, For is the
// one place an algorithm is mapped to its fold, and FoldStream is the
// one loop that fans a pass out to per-worker states and merges them.
// The single-process driver, Ingest and the dist coordinator and
// workers only schedule these; none of them names a sketch type.
package fold

import (
	"fmt"
	"io"
	"runtime"

	"assocmine/internal/bps"
	"assocmine/internal/kminhash"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
)

// State is a phase-1 accumulator. States folded from disjoint row sets
// merge exactly — the merged state finishes to the sketch of the union
// of the rows, whatever the partition and merge order — and a snapshot
// restores to a state that folds on as if never interrupted. A State is
// not safe for concurrent use.
type State interface {
	NumCols() int
	// Rows is the number of rows folded in so far, merged peers included.
	Rows() int64
	// FoldRow folds one row (sorted column indices in [0, NumCols)). A
	// row id is folded at most once across states that will be merged.
	FoldRow(row int, cols []int32)
	// Merge folds peer, a state of the same fold and parameters, into
	// the receiver; peer is left unchanged.
	Merge(peer State) error
	// Fresh returns an empty state of the receiver's fold and parameters.
	Fresh() (State, error)
	// Snapshot serialises the state in its fold's own format (AMF1,
	// KMF1, or the supports vector), which the fold's Read restores.
	Snapshot(w io.Writer) error
	// Finish returns the sketch phase 2 reads. The state is left intact.
	Finish() Sketch
}

// Sketch is what phase 1 leaves in memory for phase 2; a fold sets
// exactly one field.
type Sketch struct {
	MH  *minhash.Signatures
	KMH *kminhash.Sketches
	Sup []int64 // BPS column supports
}

// Cells is the number of resident sketch entries, 8 bytes each.
func (sk Sketch) Cells() int64 {
	switch {
	case sk.MH != nil:
		return int64(len(sk.MH.Vals))
	case sk.KMH != nil:
		var n int64
		for _, s := range sk.KMH.Sigs {
			n += int64(len(s))
		}
		return n
	default:
		return int64(len(sk.Sup))
	}
}

// Algo names a scheme with a phase-1 fold. The values are the root
// package's Algorithm values (pinned by a root test), which are also
// what an AIN1 snapshot and the dist hello frame carry.
type Algo int

const (
	MinHash  Algo = 1 // MH signatures + Row-Sorting candidates
	KMinHash Algo = 2 // bottom-k sketches + Hash-Count cascade
	MinLSH   Algo = 3 // MH signatures + banded LSH
	BPS      Algo = 6 // support pass + biased pair sampling
)

// Reader is what a snapshot is read from. The decoders consume exactly
// their own bytes, so several states can share one stream.
type Reader interface {
	io.Reader
	io.ByteReader
}

// Fold is one scheme's phase 1.
type Fold struct {
	// New returns an empty state for m columns; k and seed parameterise
	// the sketch folds, the support fold ignores them. Read restores a
	// snapshot and checks that it was folded under (m, k, seed).
	New  func(m, k int, seed uint64) (State, error)
	Read func(r Reader, m, k int, seed uint64) (State, error)
	// Columns, when non-nil, computes the fold's sketch from column-major
	// in-memory data; ok is false when, at this worker count, the row
	// fold is the faster way. Serial marks a decode-bound fold, which
	// the driver runs on one worker whatever its worker budget.
	Columns func(ls matrix.ColumnLister, k int, seed uint64, workers int) (sk Sketch, ok bool, err error)
	Serial  bool
}

// For maps an algorithm to its fold — the only place that knows which
// scheme folds which state. ok is false for the schemes that read the
// data directly.
func For(a Algo) (f Fold, ok bool) {
	switch a {
	case MinHash, MinLSH:
		// No column kernel: it cost k hash evaluations per matrix entry
		// where the row fold costs k per row, and measured slower at every
		// worker count (DESIGN.md, "The driver").
		return Fold{New: newMH, Read: readMH}, true
	case KMinHash:
		return Fold{New: newKMH, Read: readKMH, Columns: kmhColumns}, true
	case BPS:
		return Fold{New: newSup, Read: readSup, Columns: supColumns, Serial: true}, true
	}
	return Fold{}, false
}

// kmhColumns: merging bottom-k states outweighs the one hash per row a
// worker saves, so the fanned-out K-MH fold is slower than the serial
// one; above one worker the column-parallel kernel runs instead (2.6x
// faster at 2 workers).
func kmhColumns(ls matrix.ColumnLister, k int, seed uint64, workers int) (Sketch, bool, error) {
	if workers <= 1 {
		return Sketch{}, false, nil
	}
	sk, err := kminhash.ComputeParallel(ls, k, seed, workers)
	return Sketch{KMH: sk}, true, err
}

// supColumns reads the supports off the column lists without a scan.
func supColumns(ls matrix.ColumnLister, _ int, _ uint64, _ int) (Sketch, bool, error) {
	return Sketch{Sup: bps.SupportsFromLister(ls)}, true, nil
}

// The three adapters put the packages' own constructor, decoder, Merge
// and Finish behind State; FoldRow, Snapshot, Rows and NumCols are the
// embedded state's methods.

type mhState struct{ *minhash.FoldState }

func newMH(m, k int, seed uint64) (State, error) {
	st, err := minhash.NewFoldState(m, k, seed)
	if err != nil {
		return nil, err
	}
	return mhState{st}, nil
}

func readMH(r Reader, m, k int, seed uint64) (State, error) {
	st, err := minhash.ReadFoldState(r)
	if err != nil {
		return nil, err
	}
	return mhState{st}, checkShape(st, m, k, seed)
}

func (s mhState) Fresh() (State, error) { return newMH(s.NumCols(), s.K(), s.Seed()) }

func (s mhState) Merge(peer State) error {
	return mergeAs(s, peer, func(d, p mhState) error { return minhash.Merge(d.FoldState, p.FoldState) })
}

func (s mhState) Finish() Sketch { return Sketch{MH: s.FoldState.Finish()} }

type kmhState struct{ *kminhash.FoldState }

func newKMH(m, k int, seed uint64) (State, error) {
	st, err := kminhash.NewFoldState(m, k, seed)
	if err != nil {
		return nil, err
	}
	return kmhState{st}, nil
}

func readKMH(r Reader, m, k int, seed uint64) (State, error) {
	st, err := kminhash.ReadFoldState(r)
	if err != nil {
		return nil, err
	}
	return kmhState{st}, checkShape(st, m, k, seed)
}

func (s kmhState) Fresh() (State, error) { return newKMH(s.NumCols(), s.K(), s.Seed()) }

func (s kmhState) Merge(peer State) error {
	return mergeAs(s, peer, func(d, p kmhState) error { return kminhash.Merge(d.FoldState, p.FoldState) })
}

func (s kmhState) Finish() Sketch { return Sketch{KMH: s.FoldState.Finish()} }

type supState struct{ *bps.FoldState }

func newSup(m, _ int, _ uint64) (State, error) {
	if m < 0 {
		return nil, fmt.Errorf("fold: negative column count %d", m)
	}
	return supState{bps.NewFoldState(m)}, nil
}

func readSup(r Reader, m, _ int, _ uint64) (State, error) {
	st, err := bps.ReadFoldState(r)
	if err != nil {
		return nil, err
	}
	if st.NumCols() != m {
		return nil, fmt.Errorf("fold: snapshot covers %d columns, want %d", st.NumCols(), m)
	}
	return supState{st}, nil
}

func (s supState) Fresh() (State, error) { return newSup(s.NumCols(), 0, 0) }

func (s supState) Merge(peer State) error {
	return mergeAs(s, peer, func(d, p supState) error { return bps.Merge(d.FoldState, p.FoldState) })
}

func (s supState) Finish() Sketch { return Sketch{Sup: s.FoldState.Finish()} }

// checkShape rejects a restored sketch state folded under other
// parameters than the caller's.
func checkShape(st interface {
	K() int
	NumCols() int
	Seed() uint64
}, m, k int, seed uint64) error {
	if st.K() != k || st.NumCols() != m || st.Seed() != seed {
		return fmt.Errorf("fold: snapshot has k=%d m=%d seed=%#x, want k=%d m=%d seed=%#x",
			st.K(), st.NumCols(), st.Seed(), k, m, seed)
	}
	return nil
}

// mergeAs runs a package's own Merge when peer is the receiver's kind
// of state.
func mergeAs[S State](dst S, peer State, merge func(dst, src S) error) error {
	src, ok := peer.(S)
	if !ok {
		return fmt.Errorf("fold: cannot merge %T into %T", peer, dst)
	}
	return merge(dst, src)
}

// FoldStream folds every row of src into st — bit for bit what a serial
// FoldRow loop leaves there — in ONE sequential pass, returning the
// number of shards streamed. st may already hold rows (the resume
// path). workers has the one meaning every kernel gives it: 0 and 1 are
// serial, negative is GOMAXPROCS.
//
// One worker folds each row straight off the scan: no shard copy, 0
// shards, and a chunked sequential ingest replays an uninterrupted pass
// exactly, the order-dependent K-MH Updates counter included. Above
// one, shards are dealt round-robin (matrix.Deal) to Fresh per-worker
// states, merged into st in worker order at the end: the merge is
// exact, so any worker count finishes to the serial sketch (Updates
// becomes the sum of the parts), at O(workers) states of memory plus a
// constant number of in-flight shards.
func FoldStream(src matrix.RowSource, st State, workers int) (int64, error) {
	if src.NumCols() != st.NumCols() {
		return 0, fmt.Errorf("fold: source has %d columns, fold state has %d", src.NumCols(), st.NumCols())
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := []State{st}
	if workers > 1 {
		parts = make([]State, workers)
		for w := range parts {
			p, err := st.Fresh()
			if err != nil {
				return 0, err
			}
			parts[w] = p
		}
	}
	sinks := make([]matrix.Sink, 0, 1) // the serial fold's stays on the stack
	for _, p := range parts {
		sinks = append(sinks, func(row int, cols []int32) error {
			p.FoldRow(row, cols)
			return nil
		})
	}
	shards, err := matrix.Deal(src, sinks)
	if err != nil || workers <= 1 {
		return shards, err
	}
	for _, p := range parts {
		if err := st.Merge(p); err != nil {
			return shards, err
		}
	}
	return shards, nil
}
