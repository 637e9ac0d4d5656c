package assocmine

import (
	"fmt"

	"assocmine/internal/driver"
	"assocmine/internal/matrix"
)

// FileDataset mines a dataset straight from disk: every phase that only
// needs sequential access (signature computation, a-priori counting,
// verification) performs one fresh pass over the file, and nothing but
// the O(m·K) signatures and candidate counters is held in memory. This
// is the paper's actual operating regime — "we are more interested in
// the case where M is large and the data is disk-resident".
//
// Supported files are those Dataset.Save writes: the text transaction
// format, the row-major streaming binary format (".arows") and its
// compressed variant (".carows").
type FileDataset struct {
	src *matrix.FileSource
}

// FileError is the wrapped error a file-backed run returns for
// permanent IO or decode faults, carrying the path and the byte offset
// the decoder had consumed. Retrieve it with errors.As.
type FileError = matrix.FileError

// OpenFileDataset validates the file header and returns a FileDataset.
// Opens and reads that fail transiently are retried, 4 times from a
// 1 ms backoff that doubles.
func OpenFileDataset(path string) (*FileDataset, error) {
	return openFileDataset(nil, path)
}

// openFileDataset is OpenFileDataset with every file open routed
// through fsys (nil means the OS): the seam fault-injection tests open
// their files through.
func openFileDataset(fsys matrix.FS, path string) (*FileDataset, error) {
	src, err := matrix.OpenFileSourceFS(fsys, path)
	if err != nil {
		return nil, err
	}
	return &FileDataset{src: src}, nil
}

// NumRows returns the row count from the file header.
func (f *FileDataset) NumRows() int { return f.src.NumRows() }

// NumCols returns the column count from the file header.
func (f *FileDataset) NumCols() int { return f.src.NumCols() }

// SimilarPairs runs the configured algorithm with one file pass per
// phase.
func (f *FileDataset) SimilarPairs(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return similar(cfg.input(f.src), cfg, driver.Mine)
}

// Load reads the file into a new in-memory Dataset, one pass each call.
func (f *FileDataset) Load() (*Dataset, error) {
	m, err := matrix.Collect(f.src)
	if err != nil {
		return nil, fmt.Errorf("assocmine: loading file dataset %s: %w", f.src.Path(), err)
	}
	return &Dataset{m: m}, nil
}
