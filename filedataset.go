package assocmine

import (
	"fmt"
	"sync"

	"assocmine/internal/matrix"
)

// FileDataset mines a dataset straight from disk: every phase that only
// needs sequential access (signature computation, a-priori counting,
// verification) performs one fresh pass over the file, and nothing but
// the O(m·K) signatures and candidate counters is held in memory. This
// is the paper's actual operating regime — "we are more interested in
// the case where M is large and the data is disk-resident".
//
// Supported files: the text transaction format (".txt" written by
// Dataset.Save), the row-major streaming binary format (".arows",
// written by SaveRowBinary) and its compressed variant (".carows",
// written by SaveRowCompressed). HammingLSH and the Cluster helper need the
// full matrix; for those the file is materialised once and cached.
type FileDataset struct {
	src *matrix.FileSource

	once sync.Once
	mat  *matrix.Matrix
	err  error
}

// FS abstracts the file opens a FileDataset performs — the seam that
// lets tests (and the chaos harness) inject IO faults underneath the
// whole pipeline. nil means the operating system.
type FS = matrix.FS

// RetryPolicy bounds the retries the file-backed source performs on
// transient IO errors; see SetRetryPolicy.
type RetryPolicy = matrix.RetryPolicy

// FileError is the wrapped error a file-backed run returns for
// permanent IO or decode faults, carrying the path and the byte offset
// the decoder had consumed. Retrieve it with errors.As.
type FileError = matrix.FileError

// OpenFileDataset validates the file header and returns a FileDataset.
func OpenFileDataset(path string) (*FileDataset, error) {
	return OpenFileDatasetFS(nil, path)
}

// OpenFileDatasetFS is OpenFileDataset with every file open routed
// through fsys (nil means the OS).
func OpenFileDatasetFS(fsys FS, path string) (*FileDataset, error) {
	src, err := matrix.OpenFileSourceFS(fsys, path)
	if err != nil {
		return nil, err
	}
	return &FileDataset{src: src}, nil
}

// SetRetryPolicy replaces the transient-IO retry policy of the
// dataset's reads (default matrix.DefaultRetryPolicy). Not safe to
// call concurrently with a running SimilarPairs.
func (f *FileDataset) SetRetryPolicy(p RetryPolicy) { f.src.SetRetryPolicy(p) }

// NumRows returns the row count from the file header.
func (f *FileDataset) NumRows() int { return f.src.NumRows() }

// NumCols returns the column count from the file header.
func (f *FileDataset) NumCols() int { return f.src.NumCols() }

// SimilarPairs runs the configured algorithm with one file pass per
// phase. Only HammingLSH materialises the matrix (its fold ladder is a
// whole-data structure).
func (f *FileDataset) SimilarPairs(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return newRun(f.src, f.materialize, cfg).similar(nil)
}

// Load materialises the file into an in-memory Dataset (cached; later
// calls reuse it).
func (f *FileDataset) Load() (*Dataset, error) {
	m, err := f.materialize()
	if err != nil {
		return nil, err
	}
	return &Dataset{m: m}, nil
}

func (f *FileDataset) materialize() (*matrix.Matrix, error) {
	f.once.Do(func() {
		f.mat, f.err = matrix.Collect(f.src)
	})
	if f.err != nil {
		return nil, fmt.Errorf("assocmine: materialising file dataset %s: %w", f.src.Path(), f.err)
	}
	return f.mat, nil
}

// SaveRowBinary writes the dataset in the ".arows" row-major streaming
// binary format, the most compact uncompressed input for FileDataset.
func (d *Dataset) SaveRowBinary(path string) error {
	return matrix.SaveRowBinary(path, d.m.Stream())
}

// SaveRowCompressed writes the dataset in the ".carows" compressed
// row-major format (Rice-coded gap deltas or literal bitmaps, whichever
// is smaller per row). It streams through FileDataset exactly like
// ".arows" — same scans, same error reporting, bit-identical results —
// while reading fewer bytes from disk.
func (d *Dataset) SaveRowCompressed(path string) error {
	return matrix.SaveRowCompressed(path, d.m.Stream())
}
