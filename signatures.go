package assocmine

import (
	"fmt"
	"os"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/minhash"
	"assocmine/internal/rules"
)

// Signatures is a precomputed min-hash sketch of a dataset. Computing
// signatures is the expensive full-scan phase; a precomputed sketch can
// be persisted and reused across queries with different thresholds or
// MinLSH band layouts (any R, L with R*L <= K), paying only the cheap
// in-memory candidate phase plus one verification pass per query. The
// sketch is immutable once returned. What a query needs of it and no
// threshold touches is built by the first query that needs it and kept
// with it: the Row-Sorting index (MinHash; 12 bytes a cell), the sorted
// buckets of the band layout last queried (MinLSH; 12 bytes a band and
// column) and Section 6's pair statistics (MineRulesWithSignatures; 12
// bytes a pair) — the last two while they fit 64 MiB each.
type Signatures struct {
	sig  *minhash.Signatures
	seed uint64
	rows int // dataset row count, -1 when unknown (loaded sketches)

	index, bands memo[*candidate.Index]
	triangle     memo[*rules.Triangle]
}

// newSignatures wraps a finished sketch that keeps what fits memoLimit.
func newSignatures(sig *minhash.Signatures, seed uint64, rows int) *Signatures {
	return signaturesKeeping(sig, seed, rows, memoLimit)
}

// signaturesKeeping bounds the buckets and the triangle by limit each.
func signaturesKeeping(sig *minhash.Signatures, seed uint64, rows int, limit int64) *Signatures {
	s := &Signatures{sig: sig, seed: seed, rows: rows}
	s.bands.limit, s.triangle.limit = limit, limit
	return s
}

// ComputeSignatures runs the MH phase-1 fold once — the same kernel
// SimilarPairs runs for MinHash and MinLSH. Workers follow the
// Config.Workers semantic: 0 or 1 folds serially, negative means
// GOMAXPROCS, > 1 fans the one row pass out to per-worker fold states
// that are merged exactly — bit-identical results either way.
func ComputeSignatures(d *Dataset, k int, seed uint64, workers int) (*Signatures, error) {
	sk, err := d.run(Config{Algorithm: MinHash, K: k, Seed: seed, Workers: normalizeWorkers(workers)}).sketch(nil)
	if err != nil {
		return nil, err
	}
	return newSignatures(sk.MH, seed, d.NumRows()), nil
}

// K returns the number of min-hash values per column.
func (s *Signatures) K() int { return s.sig.K }

// NumCols returns the number of columns sketched.
func (s *Signatures) NumCols() int { return s.sig.M }

// Seed returns the seed the sketch was computed with.
func (s *Signatures) Seed() uint64 { return s.seed }

// Estimate returns the sketch similarity estimate for columns i and j.
func (s *Signatures) Estimate(i, j int) float64 { return s.sig.Estimate(i, j) }

// Save persists the sketch to path.
func (s *Signatures) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.sig.WriteTo(f, s.seed)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SaveCompressed persists the sketch in the compressed AMC1 format:
// each cell stored as its argmin row id in a few bits instead of a raw
// 64-bit hash value, typically 5-6x smaller, loading back bit-identical
// through LoadSignatures. Only sketches produced by ComputeSignatures
// in this process know their dataset's row count; loaded sketches
// cannot be re-saved compressed.
func (s *Signatures) SaveCompressed(path string) error {
	if s.rows < 0 {
		return fmt.Errorf("assocmine: sketch row count unknown; only sketches from ComputeSignatures can be saved compressed")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.sig.WriteCompressed(f, s.seed, s.rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSignatures reads a sketch written by Save or SaveCompressed.
func LoadSignatures(path string) (*Signatures, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sig, seed, err := minhash.ReadSignatures(f)
	if err != nil {
		return nil, err
	}
	return newSignatures(sig, seed, -1), nil
}

// SimilarPairsWithSignatures is SimilarPairsWith spelled for a min-hash
// sketch.
func SimilarPairsWithSignatures(d *Dataset, s *Signatures, cfg Config) (*Result, error) {
	return SimilarPairsWith(d, s, cfg)
}

// query implements Resident: MinHash adopts the sketch with its run
// index, MinLSH with the buckets of one band layout.
func (s *Signatures) query(d *Dataset, cfg Config) (*run, *adopted, error) {
	if s.sig.M != d.NumCols() {
		return nil, nil, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", s.sig.M, d.NumCols())
	}
	cfg.K = s.sig.K
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	pre := &adopted{Sketch: fold.Sketch{MH: s.sig}, index: &s.index}
	switch {
	case cfg.Algorithm == MinHash:
	case cfg.Algorithm != MinLSH:
		return nil, nil, fmt.Errorf("assocmine: precomputed signatures support MinHash and MinLSH, got %v", cfg.Algorithm)
	case s.sig.K < cfg.R*cfg.L:
		return nil, nil, fmt.Errorf("assocmine: sketch K=%d cannot host %d bands of %d rows", s.sig.K, cfg.L, cfg.R)
	default:
		pre.index = &s.bands
	}
	return d.run(cfg), pre, nil
}
