package assocmine

import (
	"fmt"
	"os"

	"assocmine/internal/candidate"
	"assocmine/internal/lsh"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// Signatures is a precomputed min-hash sketch of a dataset. Computing
// signatures is the expensive full-scan phase; a precomputed sketch can
// be persisted and reused across queries with different thresholds or
// MinLSH band layouts (any R, L with R*L <= K), paying only the cheap
// in-memory candidate phase plus one verification pass per query.
type Signatures struct {
	sig  *minhash.Signatures
	seed uint64
	rows int // dataset row count, -1 when unknown (loaded sketches)
}

// ComputeSignatures runs the phase-1 scan once. Workers follow the
// Config.Workers semantic: 0 or 1 serial, negative GOMAXPROCS, > 1
// parallel — with bit-identical results either way.
func ComputeSignatures(d *Dataset, k int, seed uint64, workers int) (*Signatures, error) {
	var (
		sig *minhash.Signatures
		err error
	)
	if workers = normalizeWorkers(workers); workers > 1 {
		sig, err = minhash.ComputeParallel(d.m, k, seed, workers)
	} else {
		sig, err = minhash.Compute(d.m.Stream(), k, seed)
	}
	if err != nil {
		return nil, err
	}
	return &Signatures{sig: sig, seed: seed, rows: d.NumRows()}, nil
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
	return &Signatures{sig: sig, seed: seed, rows: -1}, nil
}

// SimilarPairsWithSignatures answers a similar-pairs query from a
// precomputed sketch, skipping the signature pass entirely. Supported
// algorithms: MinHash (Row-Sorting over the sketch) and MinLSH (banding
// over the sketch; requires R*L <= the sketch's K). Verification still
// makes one pass over d — or over its trailing cfg.Window rows when a
// sliding window is set, for sketches that cover only that window.
func SimilarPairsWithSignatures(d *Dataset, s *Signatures, cfg Config) (*Result, error) {
	if s.sig.M != d.NumCols() {
		return nil, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", s.sig.M, d.NumCols())
	}
	cfg.K = s.sig.K
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	st := Stats{Algorithm: cfg.Algorithm, SignatureWorkers: 1, CandidateWorkers: 1, VerifyWorkers: 1}
	inner := obs.NewCollector()
	rec := obs.Tee(inner, cfg.Recorder)
	prog := newProgressSink(cfg.Progress)
	// The signature phase was paid when the sketch was computed, so no
	// signature span or cell counter here; the gauge still reports the
	// sketch's resident size.
	rec.SetGauge(obs.GaugeSignatureBytes, int64(len(s.sig.Vals))*8)
	var cand []pairs.Scored
	tick := prog.enter(PhaseCandidates)
	end := phaseSpan(rec, PhaseCandidates)
	switch cfg.Algorithm {
	case MinHash:
		cutoff := (1 - cfg.Delta) * cfg.Threshold
		var cst candidate.Stats
		var err error
		cand, cst, err = candidate.RowSortMHParallelProgress(cfg.context(), s.sig, cutoff, cfg.Workers, tick)
		if err != nil {
			return nil, err
		}
		rec.Add(obs.CounterIncrements, cst.Increments)
	case MinLSH:
		if s.sig.K < cfg.R*cfg.L {
			return nil, fmt.Errorf("assocmine: sketch K=%d cannot host %d bands of %d rows", s.sig.K, cfg.L, cfg.R)
		}
		set, lst, err := lsh.CandidatesParallelProgress(cfg.context(), s.sig, cfg.R, cfg.L, cfg.Workers, tick)
		if err != nil {
			return nil, err
		}
		for _, p := range set.Slice() {
			cand = append(cand, pairs.Scored{Pair: p})
		}
		rec.Add(obs.CounterBucketPairs, lst.BucketPairs)
	default:
		return nil, fmt.Errorf("assocmine: precomputed signatures support MinHash and MinLSH, got %v", cfg.Algorithm)
	}
	st.CandidateTime = end()
	st.CandidateWorkers = cfg.Workers
	rec.SetGauge(obs.GaugeCandidateWorkers, int64(cfg.Workers))
	prog.finish(PhaseCandidates)
	st.Candidates = len(cand)
	rec.Add(obs.CounterCandidates, int64(st.Candidates))
	if cfg.SkipVerify {
		pairs.SortScored(cand)
		st.fillFrom(inner)
		return &Result{Pairs: toPairs(cand, false), Stats: st}, nil
	}
	return verifyResident(d, cand, cfg, st, inner, rec, prog)
}

// verifyResident is phase 3 of the precomputed-sketch entry points: one
// exact pass over the resident dataset — or over its trailing
// cfg.Window rows — pruning cand, under the same kernel choice and the
// same Config.MemoryBudget/SpillDir handling as SimilarPairs.
func verifyResident(d *Dataset, cand []pairs.Scored, cfg Config, st Stats, inner *obs.Collector, rec obs.Recorder, prog *progressSink) (*Result, error) {
	tick := prog.enter(PhaseVerify)
	end := phaseSpan(rec, PhaseVerify)
	vsrc := matrix.RowSource(d.m.Stream())
	if cfg.Window > 0 {
		// Verify over the trailing window only — the mode used when the
		// sketch itself covers a window (e.g. one produced by an Ingest
		// in sliding-window mode). The tail wrapper hides the in-memory
		// fast-path interfaces, so the packed and parallel kernels fall
		// to plain scans that see only the window's rows; ids are
		// preserved, so candidate pairs from the sketch line up.
		if from := d.NumRows() - cfg.Window; from > 0 {
			vsrc = &matrix.TailSource{Src: vsrc, From: from}
		}
	}
	if cfg.Context != nil {
		vsrc = matrix.WithContext(cfg.Context, vsrc)
	}
	budget := verify.Budget{Bytes: cfg.MemoryBudget, Dir: cfg.SpillDir}
	var verified []pairs.Scored
	var vst verify.Stats
	var err error
	if cfg.VerifyKernel == KernelPacked ||
		(cfg.VerifyKernel == KernelAuto && verify.AutoPack(d.NumRows(), d.NumCols(), cand, cfg.MemoryBudget)) {
		// The packed pass ticks candidate pairs itself, so vsrc keeps
		// its row-granularity wrapper off.
		verified, vst, err = verify.ExactPacked(vsrc, cand, cfg.Threshold, verify.PackedOptions{
			Budget:  budget,
			Workers: cfg.Workers,
			Context: cfg.Context,
			Tick:    tick,
		})
	} else {
		if tick != nil {
			vsrc = &matrix.ProgressSource{Src: vsrc, Tick: tick}
		}
		if cfg.MemoryBudget > 0 {
			verified, vst, err = verify.ExactBudgeted(vsrc, cand, cfg.Threshold, budget, cfg.Workers, nil)
		} else {
			verified, vst, err = verify.ExactParallel(vsrc, cand, cfg.Threshold, cfg.Workers)
		}
	}
	if err != nil {
		return nil, err
	}
	st.VerifyTime = end()
	st.VerifyWorkers = cfg.Workers
	rec.SetGauge(obs.GaugeVerifyWorkers, int64(cfg.Workers))
	rec.Add(obs.CounterVerifyTouches, vst.Touches)
	addNonzero(rec, obs.CounterSpillRuns, vst.SpillRuns)
	addNonzero(rec, obs.CounterSpillBytes, vst.SpillBytes)
	addNonzero(rec, obs.CounterSpillBytesCompressed, vst.SpillBytesCompressed)
	if vst.SpillBytesCompressed > 0 {
		rec.SetGauge(obs.GaugeCodecRatio, int64(float64(vst.SpillBytesRaw)/float64(vst.SpillBytesCompressed)*100))
	}
	addNonzero(rec, obs.CounterPackedWords, vst.PackedWords)
	addNonzero(rec, obs.CounterPackedBatches, vst.PackedBatches)
	prog.finish(PhaseVerify)
	st.Verified = len(verified)
	st.FalsePositives = st.Candidates - st.Verified
	st.DataPasses = 1
	scanned := d.NumRows()
	if cfg.Window > 0 && cfg.Window < scanned {
		scanned = cfg.Window
	}
	st.RowsScanned = int64(scanned)
	rec.Add(obs.CounterPairsVerified, int64(st.Verified))
	rec.Add(obs.CounterFalsePositives, int64(st.FalsePositives))
	rec.Add(obs.CounterDataPasses, 1)
	rec.Add(obs.CounterRowsScanned, st.RowsScanned)
	st.fillFrom(inner)
	pairs.SortScored(verified)
	return &Result{Pairs: toPairs(verified, true), Stats: st}, nil
}
