package assocmine

import (
	"fmt"
	"time"

	"assocmine/internal/candidate"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// Progress describes one band of a progressive Min-LSH run.
type Progress struct {
	// Band is the 0-based index of the band just processed; Bands is
	// the total.
	Band, Bands int
	// Fresh holds the newly discovered pairs of this band, verified
	// exactly (Similarity filled, pairs below threshold already
	// removed).
	Fresh []Pair
	// TotalFound is the number of verified pairs accumulated so far.
	TotalFound int
}

// ProgressiveSimilarPairs runs Min-LSH band by band, delivering each
// band's newly found (and exactly verified) pairs to fn as they
// surface — the online framework of Section 4: each band cuts the
// remaining false negatives by a fixed factor, the most similar pairs
// tend to appear first, and the user can stop at any time by returning
// false from fn. The pairs accumulated up to the stop are returned.
//
// cfg.Algorithm must be MinLSH (or zero, which is treated as MinLSH
// here); cfg.K must be at least R*L. The signature phase, each band's
// verification (kernel, MemoryBudget, Workers, Context) and the Stats
// accounting are the SimilarPairs driver's own steps, and the banding is
// its kernel (candidate.For) scheduled one band per range, each band's
// fresh pairs being what its Gatherer lets through — that ordering is
// the point of the API —
// so DataPasses counts the signature pass plus one pass per band that
// found fresh pairs. cfg.Window restricts the run to the trailing rows,
// like SimilarPairs.
func ProgressiveSimilarPairs(d *Dataset, cfg Config, fn func(Progress) bool) (*Result, error) {
	if cfg.Algorithm != MinLSH && cfg.Algorithm != BruteForce {
		return nil, fmt.Errorf("assocmine: progressive mining requires MinLSH, got %v", cfg.Algorithm)
	}
	cfg.Algorithm = MinLSH
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.K < cfg.R*cfg.L {
		return nil, fmt.Errorf("assocmine: progressive mining needs K >= R*L (%d >= %d)", cfg.K, cfg.R*cfg.L)
	}
	if fn == nil {
		return nil, fmt.Errorf("assocmine: progressive mining requires a callback")
	}
	r := d.run(cfg)
	start := time.Now()
	sk, err := r.sketch(nil)
	if err != nil {
		return nil, err
	}

	k, err := candidate.For(cfg.Context, cfg.params(), sk, 1)
	if err != nil {
		return nil, err
	}
	st := &r.st
	var all, band []pairs.Scored
	var bucketPairs int64
	gather := k.Gatherer()
	ctick := r.prog.enter(PhaseCandidates)
	for b := 0; b < k.Units(); b++ {
		var work int64
		if band, work, err = k.Range(band[:0], b, b+1); err != nil {
			return nil, err
		}
		bucketPairs += work
		fresh := gather.Add(band[:0], band)
		vstart := time.Now()
		verified, err := r.exact(fresh, nil, nil)
		st.VerifyTime += time.Since(vstart)
		if err != nil {
			return nil, err
		}
		st.Candidates += len(fresh)
		all = append(all, verified...)
		if ctick != nil {
			ctick(int64(b+1), int64(cfg.L))
		}
		if !fn(Progress{Band: b, Bands: cfg.L, Fresh: toPairs(verified, true), TotalFound: len(all)}) {
			break
		}
	}
	st.CandidateTime = time.Since(start) - st.SignatureTime - st.VerifyTime
	st.Verified = len(all)
	st.FalsePositives = st.Candidates - st.Verified
	// The candidate and verify phases interleave band by band, so their
	// spans are reported once at completion with the accumulated
	// durations (the same values Stats records).
	r.rec.PhaseStart(PhaseCandidates)
	r.rec.PhaseEnd(PhaseCandidates, st.CandidateTime)
	r.rec.PhaseStart(PhaseVerify)
	r.rec.PhaseEnd(PhaseVerify, st.VerifyTime)
	st.VerifyWorkers = cfg.Workers
	r.rec.SetGauge(obs.GaugeVerifyWorkers, int64(cfg.Workers))
	r.rec.Add(k.Counter, bucketPairs)
	r.prog.finish(PhaseCandidates)
	r.prog.enter(PhaseVerify)
	r.prog.finish(PhaseVerify)
	r.finish()
	return r.result(all, true), nil
}
