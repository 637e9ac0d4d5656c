package assocmine

import (
	"fmt"

	"assocmine/internal/candidate"
	"assocmine/internal/driver"
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
// with it: the Row-Sorting index (MinHash and Rules; 12 bytes a cell),
// the band run index of the layout last queried (MinLSH; 12 bytes a
// band and column) and Section 6's pair table (Rules; 20 bytes a pair
// that agrees in two signature rows) — the last two while they fit
// 64 MiB each.
type Signatures struct {
	sig *minhash.Signatures

	index, bands driver.Memo[*candidate.Index]
	table        driver.Memo[*rules.Table]
}

// memoLimit bounds what a resident sketch keeps beside its run index: a
// larger structure is not built to be kept, and every query runs what a
// one-shot run does. 64 MiB is the buckets of a 40-band layout up to
// 139 810 columns, §6's table while the run index bounds it at 3.3M
// pairs agreeing twice (the bound, half the run index's agreements, is
// what is checked before the build), and a *Sketches' intersection
// counts while their bound — 8 bytes a pair for min(C(m,2), the run
// index's agreements) pairs, plus the offsets — is at most 8.4M pairs.
const memoLimit = 64 << 20

// newSignatures wraps a finished sketch that keeps what fits memoLimit.
func newSignatures(sig *minhash.Signatures) *Signatures {
	return signaturesKeeping(sig, memoLimit)
}

// signaturesKeeping bounds the buckets and the table by limit each.
func signaturesKeeping(sig *minhash.Signatures, limit int64) *Signatures {
	s := &Signatures{sig: sig}
	s.bands.Limit, s.table.Limit = limit, limit
	return s
}

// ComputeSignatures runs the MH phase-1 fold once — the same kernel
// SimilarPairs runs for MinHash and MinLSH. Workers follow the
// Config.Workers semantic: 0 or 1 folds serially, negative means
// GOMAXPROCS, > 1 fans the one row pass out to per-worker fold states
// that are merged exactly — bit-identical results either way.
func ComputeSignatures(d *Dataset, k int, seed uint64, workers int) (*Signatures, error) {
	sk, err := driver.Sketch(d.input(Config{Algorithm: MinHash, K: k, Seed: seed, Workers: normalizeWorkers(workers)}))
	if err != nil {
		return nil, err
	}
	return newSignatures(sk.MH), nil
}

// K returns the number of min-hash values per column.
func (s *Signatures) K() int { return s.sig.K }

// SimilarPairsWithSignatures is SimilarPairsWith spelled for a min-hash
// sketch.
func SimilarPairsWithSignatures(d *Dataset, s *Signatures, cfg Config) (*Result, error) {
	return SimilarPairsWith(d, s, cfg)
}

// query implements Resident: MinHash adopts the sketch with its run
// index, MinLSH with the buckets of one band layout, Rules with the run
// index and §6's table.
func (s *Signatures) query(d *Dataset, cfg Config) (in driver.Input, _ Config, err error) {
	if s.sig.M != d.NumCols() {
		return in, cfg, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", s.sig.M, d.NumCols())
	}
	cfg.K = s.sig.K
	if err := cfg.setDefaults(); err != nil {
		return in, cfg, err
	}
	in = d.input(cfg)
	in.Adopted = &driver.Adopted{Sketch: fold.Sketch{MH: s.sig}, Index: &s.index}
	switch {
	case cfg.Algorithm == MinHash:
	case cfg.Algorithm == Rules:
		in.Adopted.Table = &s.table
	case cfg.Algorithm != MinLSH:
		return in, cfg, fmt.Errorf("assocmine: precomputed signatures support MinHash, MinLSH and Rules, got %v", cfg.Algorithm)
	case s.sig.K < cfg.R*cfg.L:
		return in, cfg, fmt.Errorf("assocmine: sketch K=%d cannot host %d bands of %d rows", s.sig.K, cfg.L, cfg.R)
	default:
		in.Adopted.Index = &s.bands
	}
	return in, cfg, nil
}
