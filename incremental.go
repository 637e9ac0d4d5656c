package assocmine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"assocmine/internal/fold"
	"assocmine/internal/matrix"
)

// Ingest is an incremental sketch builder: rows arrive in batches
// (AppendRows) or are caught up from a growing file (CatchUp), and the
// running fold state answers sketch queries at any point without ever
// rescanning old rows — appending n new rows costs O(n), not O(total).
// The state snapshots to disk (Save/LoadIngest, format AIN1) and
// resumes exactly, so ingestion survives process restarts.
//
// Two modes:
//
//   - Cumulative (window == 0): one fold state covers every row ever
//     appended. Queries see the whole history.
//   - Sliding window (window > 0): each batch becomes its own fold
//     checkpoint; only the last `window` batches stay live, older ones
//     expire. Queries merge the live checkpoints, so they see exactly
//     the trailing batches — mine the result against the matching data
//     suffix with Config.Window.
//
// Sketch content is bit-identical to a batch compute over the same live
// rows: appending and merging commute with the batch fold (the
// fold.State contract). An Ingest is not safe for
// concurrent use. After a failed append or catch-up the state is
// poisoned (partial rows may have been folded) and every further
// operation returns the original error — reload from the last snapshot.
type Ingest struct {
	algo   Algorithm
	fold   fold.Fold // algo's phase-1 fold
	cols   int
	k      int
	seed   uint64
	window int

	nextRow int64
	wins    []fold.State // live checkpoints, oldest first, tiling [liveFrom(), nextRow)
	err     error        // poisoned after a partial fold
}

// NewIngest returns an empty incremental builder for a dataset of cols
// columns under the given algorithm's sketch scheme: MinHash and MinLSH
// share the k-permutation min-hash fold, KMinHash uses the bottom-k
// fold. window is the number of trailing batches kept live (0 means
// cumulative — everything stays live forever).
func NewIngest(algo Algorithm, cols, k int, seed uint64, window int) (*Ingest, error) {
	f, ok := ingestFold(algo)
	if !ok {
		return nil, fmt.Errorf("assocmine: incremental ingestion supports MinHash, MinLSH and KMinHash, got %v", algo)
	}
	if cols < 0 {
		return nil, fmt.Errorf("assocmine: negative column count %d", cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("assocmine: K must be positive, got %d", k)
	}
	if window < 0 {
		return nil, fmt.Errorf("assocmine: window must be >= 0, got %d", window)
	}
	in := &Ingest{algo: algo, fold: f, cols: cols, k: k, seed: seed, window: window}
	if window == 0 {
		// Cumulative mode folds everything into one eager state.
		st, err := in.newState()
		if err != nil {
			return nil, err
		}
		in.wins = []fold.State{st}
	}
	return in, nil
}

// ingestFold is the fold an ingest of algo runs: the schemes whose
// phase 1 leaves a sketch a query can be answered from (BPS supports
// are a fold too, but not one to mine against later; Rules folds MH
// signatures, which an ingest keeps under MinHash).
func ingestFold(algo Algorithm) (fold.Fold, bool) {
	f, ok := fold.For(fold.Algo(algo))
	return f, ok && algo != BPS && algo != Rules
}

func (in *Ingest) newState() (fold.State, error) { return in.fold.New(in.cols, in.k, in.seed) }

// Algorithm returns the sketch scheme the ingest folds for.
func (in *Ingest) Algorithm() Algorithm { return in.algo }

// K returns the sketch size parameter.
func (in *Ingest) K() int { return in.k }

// NumCols returns the column count.
func (in *Ingest) NumCols() int { return in.cols }

// Seed returns the hash seed.
func (in *Ingest) Seed() uint64 { return in.seed }

// WindowBatches returns the sliding-window size in batches (0 means
// cumulative).
func (in *Ingest) WindowBatches() int { return in.window }

// Rows returns the total rows ever appended; the next appended row gets
// this id.
func (in *Ingest) Rows() int64 { return in.nextRow }

// Windows returns the number of live checkpoints.
func (in *Ingest) Windows() int { return len(in.wins) }

// liveFrom returns the first row id the live checkpoints cover
// (0 in cumulative mode; == Rows() when nothing is live).
func (in *Ingest) liveFrom() int64 {
	from := in.nextRow
	for _, w := range in.wins {
		from -= w.Rows()
	}
	return from
}

// LiveRows returns the number of rows the live checkpoints cover — the
// Config.Window value that makes a query verify against exactly the
// sketched suffix.
func (in *Ingest) LiveRows() int64 { return in.nextRow - in.liveFrom() }

// AppendRows folds one batch of new rows into the ingest: rows[i] lists
// the column indices set in global row Rows()+i (any order; duplicates
// collapse). In sliding-window mode the batch becomes one checkpoint
// and the oldest checkpoints beyond the window expire. Workers follow
// the Config.Workers semantic — 0 and 1 fold serially, negative means
// GOMAXPROCS, above 1 the batch is dealt to that many fold states and
// merged exactly; serial appends replay bit-identically to an
// uninterrupted batch fold.
func (in *Ingest) AppendRows(rows [][]int32, workers int) error {
	if in.err != nil {
		return in.err
	}
	// Validate (and canonicalise) before touching any state, so a bad
	// batch cannot poison the fold.
	clean := make([][]int32, len(rows))
	for i, cs := range rows {
		row, err := canonRow(cs, in.cols)
		if err != nil {
			return fmt.Errorf("assocmine: appended row %d: %w", int(in.nextRow)+i, err)
		}
		clean[i] = row
	}
	src := &matrix.SliceSource{Cols: in.cols, Base: int(in.nextRow), Rows: clean}
	return in.foldRows(src, len(rows), workers)
}

// canonRow validates column indices and returns a sorted, deduplicated
// copy when the input is not already strictly increasing (matching what
// the file formats and NewDatasetFromRows deliver).
func canonRow(cs []int32, cols int) ([]int32, error) {
	sorted := true
	for i, c := range cs {
		if c < 0 || int(c) >= cols {
			return nil, fmt.Errorf("column %d out of range [0,%d)", c, cols)
		}
		if i > 0 && c <= cs[i-1] {
			sorted = false
		}
	}
	if sorted {
		return cs, nil
	}
	return matrix.SortDedup(append([]int32(nil), cs...)), nil
}

// CatchUp folds every file row the ingest has not seen yet (rows >=
// Rows()) — the O(new rows) resume path for a file that grew in place.
// Returns the number of rows appended. The file must keep the ingest's
// column count and must not have shrunk. Workers as for AppendRows.
func (in *Ingest) CatchUp(fd *FileDataset, workers int) (int, error) {
	return in.catchUp(fd.src, workers)
}

// CatchUpDataset is CatchUp over an in-memory Dataset.
func (in *Ingest) CatchUpDataset(d *Dataset, workers int) (int, error) {
	return in.catchUp(d.m.Stream(), workers)
}

func (in *Ingest) catchUp(src matrix.RowSource, workers int) (int, error) {
	if in.err != nil {
		return 0, in.err
	}
	if src.NumCols() != in.cols {
		return 0, fmt.Errorf("assocmine: source has %d columns, ingest expects %d", src.NumCols(), in.cols)
	}
	total := int64(src.NumRows())
	if total < in.nextRow {
		return 0, fmt.Errorf("assocmine: source shrank to %d rows, ingest has folded %d", total, in.nextRow)
	}
	if total == in.nextRow {
		return 0, nil
	}
	newRows := int(total - in.nextRow)
	tail := &matrix.RangeSource{Src: src, From: int(in.nextRow), To: int(total)}
	if err := in.foldRows(tail, newRows, workers); err != nil {
		return 0, err
	}
	return newRows, nil
}

// foldRows streams src's unseen rows into the target state — the
// cumulative state, or a fresh checkpoint in window mode — then advances
// the row cursor and expires old checkpoints.
func (in *Ingest) foldRows(src matrix.RowSource, newRows, workers int) error {
	if in.window > 0 {
		st, err := in.newState()
		if err != nil {
			return err
		}
		in.wins = append(in.wins, st)
	}
	if _, err := fold.FoldStream(src, in.wins[len(in.wins)-1], workers); err != nil {
		// Some rows may already be folded; poison the ingest so callers
		// reload from the last snapshot instead of double-counting.
		in.err = fmt.Errorf("assocmine: incremental fold failed, state poisoned: %w", err)
		return err
	}
	in.nextRow += int64(newRows)
	if in.window > 0 && len(in.wins) > in.window {
		in.wins = append(in.wins[:0], in.wins[len(in.wins)-in.window:]...)
	}
	return nil
}

// sketch finishes the live rows into a sketch: the single live state's
// own Finish, or that of a fresh state the live checkpoints are merged
// into (the ingest keeps them as they are).
func (in *Ingest) sketch() (fold.Sketch, error) {
	if in.err != nil {
		return fold.Sketch{}, in.err
	}
	if len(in.wins) == 1 {
		return in.wins[0].Finish(), nil
	}
	st, err := in.newState()
	if err != nil {
		return fold.Sketch{}, err
	}
	for _, w := range in.wins {
		if err := st.Merge(w); err != nil {
			return fold.Sketch{}, err
		}
	}
	return st.Finish(), nil
}

// Signatures finishes the live fold into a queryable min-hash sketch
// (MinHash/MinLSH ingests only). The ingest keeps folding afterwards;
// pair the result with SimilarPairsWith, setting
// Config.Window to LiveRows() in sliding-window mode.
func (in *Ingest) Signatures() (*Signatures, error) {
	sk, err := in.sketch()
	if err != nil {
		return nil, err
	}
	if sk.MH == nil {
		return nil, fmt.Errorf("assocmine: %v ingest produces Sketches, not Signatures", in.algo)
	}
	return newSignatures(sk.MH), nil
}

// Sketches finishes the live fold into a queryable bottom-k sketch
// (KMinHash ingests only); see Signatures for the query pairing.
func (in *Ingest) Sketches() (*Sketches, error) {
	sk, err := in.sketch()
	if err != nil {
		return nil, err
	}
	if sk.KMH == nil {
		return nil, fmt.Errorf("assocmine: %v ingest produces Signatures, not Sketches", in.algo)
	}
	return newSketches(sk.KMH), nil
}

// AIN1 snapshot container: a fixed header followed by one length-free
// blob per live checkpoint. The per-state codecs (AMF1/KMF1) consume
// exactly their own bytes from a shared reader, so the container needs
// no per-blob framing.
//
//	magic   "AIN1"
//	algo    uint64 LE
//	k       uint64 LE
//	cols    uint64 LE
//	seed    uint64 LE
//	window  uint64 LE
//	nextRow uint64 LE
//	windows uint64 LE  (number of checkpoints that follow)
//	per checkpoint: from uint64 LE, then the AMF1 or KMF1 blob
const ingestMagic = "AIN1"

const (
	maxIngestDim     = 1 << 31
	maxIngestK       = 1 << 20
	maxIngestRows    = 1 << 40
	maxIngestWindows = 1 << 20
)

// Save snapshots the ingest to path atomically (temp file + rename), so
// a crash mid-save leaves the previous snapshot intact.
func (in *Ingest) Save(path string) error {
	if in.err != nil {
		return in.err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ain-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	var hdr []byte
	hdr = append(hdr, ingestMagic...)
	for _, v := range []uint64{
		uint64(in.algo), uint64(in.k), uint64(in.cols), in.seed,
		uint64(in.window), uint64(in.nextRow), uint64(len(in.wins)),
	} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	from := in.liveFrom()
	for _, w := range in.wins {
		if _, err := bw.Write(binary.LittleEndian.AppendUint64(nil, uint64(from))); err != nil {
			return err
		}
		if err := w.Snapshot(bw); err != nil {
			return err
		}
		from += w.Rows()
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		f = nil
		return err
	}
	f = nil
	return os.Rename(tmp, path)
}

// LoadIngest restores a snapshot written by Save, resuming exactly:
// appending the same rows to the restored ingest yields bit-identical
// sketches to an uninterrupted run.
func LoadIngest(path string) (*Ingest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr := make([]byte, 4+7*8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("assocmine: reading ingest snapshot header: %w", err)
	}
	if string(hdr[:4]) != ingestMagic {
		return nil, fmt.Errorf("assocmine: %s is not an AIN1 ingest snapshot", path)
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[4+8*i:]) }
	algo := Algorithm(u(0))
	k, cols := u(1), u(2)
	seed := u(3)
	window, nextRow, nWins := u(4), u(5), u(6)
	fd, ok := ingestFold(algo)
	if !ok {
		return nil, fmt.Errorf("assocmine: ingest snapshot has unsupported algorithm %v", algo)
	}
	if k < 1 || k > maxIngestK {
		return nil, fmt.Errorf("assocmine: ingest snapshot k=%d out of range", k)
	}
	if cols > maxIngestDim {
		return nil, fmt.Errorf("assocmine: ingest snapshot has %d columns, limit %d", cols, int64(maxIngestDim))
	}
	if window > maxIngestWindows {
		return nil, fmt.Errorf("assocmine: ingest snapshot window=%d out of range", window)
	}
	if nextRow > maxIngestRows {
		return nil, fmt.Errorf("assocmine: ingest snapshot claims %d rows, limit %d", nextRow, int64(maxIngestRows))
	}
	if window == 0 && nWins != 1 {
		return nil, fmt.Errorf("assocmine: cumulative ingest snapshot must hold exactly 1 state, has %d", nWins)
	}
	if window > 0 && nWins > window {
		return nil, fmt.Errorf("assocmine: ingest snapshot holds %d states for a %d-batch window", nWins, window)
	}
	in := &Ingest{
		algo: algo, fold: fd, cols: int(cols), k: int(k), seed: seed,
		window: int(window), nextRow: int64(nextRow),
	}
	var next int64 // windows must tile [first from, nextRow)
	for w := uint64(0); w < nWins; w++ {
		var fromBuf [8]byte
		if _, err := io.ReadFull(br, fromBuf[:]); err != nil {
			return nil, fmt.Errorf("assocmine: reading ingest snapshot state %d: %w", w, err)
		}
		from := binary.LittleEndian.Uint64(fromBuf[:])
		if from > nextRow {
			return nil, fmt.Errorf("assocmine: ingest snapshot state %d starts at row %d beyond row count %d", w, from, nextRow)
		}
		st, err := fd.Read(br, in.cols, in.k, seed)
		if err != nil {
			return nil, fmt.Errorf("assocmine: ingest snapshot state %d: %w", w, err)
		}
		if w > 0 && int64(from) != next {
			return nil, fmt.Errorf("assocmine: ingest snapshot state %d starts at row %d, want %d (states must be contiguous)", w, from, next)
		}
		next = int64(from) + st.Rows()
		in.wins = append(in.wins, st)
	}
	if nWins > 0 && next != int64(nextRow) {
		return nil, fmt.Errorf("assocmine: ingest snapshot states cover rows up to %d, header claims %d", next, nextRow)
	}
	if nWins == 0 && nextRow != 0 {
		return nil, fmt.Errorf("assocmine: ingest snapshot claims %d rows with no live states", nextRow)
	}
	return in, nil
}
