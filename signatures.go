package assocmine

import (
	"fmt"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/minhash"
	"assocmine/internal/rules"
)

// Signatures is a precomputed min-hash sketch of a dataset. Computing
// signatures is the expensive full-scan phase; a precomputed sketch is
// reused across queries with different thresholds or MinLSH band
// layouts (any R, L with R*L <= K), paying only the cheap in-memory
// candidate phase plus one verification pass per query. It persists as
// the fold state it finishes from: an Ingest snapshot (Ingest.Save,
// LoadIngest, format AIN1) whose Signatures method returns it. The
// sketch is immutable once returned. What a query needs of it and no
// threshold touches is built by the first query that needs it and kept
// with it: the Row-Sorting index (MinHash; 12 bytes a cell), the sorted
// buckets of the band layout last queried (MinLSH; 12 bytes a band and
// column) and Section 6's pair statistics (MineRulesWithSignatures; 12
// bytes a pair) — the last two while they fit 64 MiB each.
type Signatures struct {
	sig *minhash.Signatures

	index, bands memo[*candidate.Index]
	triangle     memo[*rules.Triangle]
}

// newSignatures wraps a finished sketch that keeps what fits memoLimit.
func newSignatures(sig *minhash.Signatures) *Signatures {
	return signaturesKeeping(sig, memoLimit)
}

// signaturesKeeping bounds the buckets and the triangle by limit each.
func signaturesKeeping(sig *minhash.Signatures, limit int64) *Signatures {
	s := &Signatures{sig: sig}
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
	return newSignatures(sk.MH), nil
}

// K returns the number of min-hash values per column.
func (s *Signatures) K() int { return s.sig.K }

// Estimate returns the sketch similarity estimate for columns i and j.
func (s *Signatures) Estimate(i, j int) float64 { return s.sig.Estimate(i, j) }

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
