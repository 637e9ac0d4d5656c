package assocmine

import (
	"fmt"
	"sync"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// TopPairs returns the n most similar column pairs without requiring
// the caller to guess a threshold: it runs the configured algorithm at
// cfg.Threshold and, when fewer than n pairs clear it, geometrically
// lowers the threshold and re-queries until n pairs are found or the
// floor is hit. cfg.Threshold acts as the starting point (default 0.9);
// minThreshold bounds the search from below (default 0.05 — below
// that, the near-zero mass makes "top pairs" meaningless on sparse
// data).
//
// Every attempt is a complete run — signature scan, candidates, verify
// — so on a large dataset, or when the threshold is expected to drop
// several times, compute the sketch once (ComputeSignatures,
// ComputeSketches) and use TopPairsWith.
// cfg.Workers carries through to every retry, parallelising all three
// phases of each attempt.
func TopPairs(d *Dataset, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		return SimilarPairs(d, c)
	})
}

// Resident is a precomputed sketch queries are answered from —
// *Signatures or *Sketches, the only implementations — with the
// phase-2 index it memoises. SimilarPairsWith, TopPairsWith and
// TopColumnsWith run the driver's four steps with the sketch adopted
// in place of the phase-1 fold.
type Resident interface {
	// query checks cfg against the sketch and returns the driver of one
	// query answered from it, with the sketch to adopt.
	query(d *Dataset, cfg Config) (*run, *adopted, error)
}

// SimilarPairsWith answers a similar-pairs query from a precomputed
// sketch of d, skipping the signature pass entirely: the in-memory
// candidate phase over the sketch's index — built by the first query
// that needs it and reused by every later one — plus one verification
// pass over d, or over its trailing cfg.Window rows when a sliding
// window is set, for sketches that cover only that window. A
// *Signatures answers MinHash (Row-Sorting) and MinLSH (banding;
// requires R*L <= the sketch's K); a *Sketches answers KMinHash
// (Hash-Count; cfg.Algorithm may be left zero — it is forced).
func SimilarPairsWith(d *Dataset, s Resident, cfg Config) (*Result, error) {
	r, pre, err := s.query(d, cfg)
	if err != nil {
		return nil, err
	}
	return r.similar(pre)
}

// TopPairsWith is TopPairs answered from a resident sketch, as one
// search: the candidate scan runs once, and each threshold-lowering step
// admits of its hits what a query at that threshold would emit and
// verifies — one pass over d — only what no earlier step did. The pairs
// are those of the retry loop over SimilarPairsWith, field for field.
func TopPairsWith(d *Dataset, s Resident, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return search(d, s, -1, n, cfg, minThreshold)
}

// TopColumnsWith returns the n columns most similar to col, as pairs
// containing col, by the same search as TopPairsWith. Its one scan asks
// the kernel for col's candidates alone — a count over col's own runs (a
// search of each band's buckets for MinLSH), then verifications of at
// most m-1 pairs in all. Pairs are ordered by decreasing verified
// similarity.
func TopColumnsWith(d *Dataset, s Resident, col, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	if col < 0 || col >= d.NumCols() {
		return nil, fmt.Errorf("assocmine: column %d out of range [0,%d)", col, d.NumCols())
	}
	return search(d, s, col, n, cfg, minThreshold)
}

// ladder checks a threshold-lowering search's arguments and fills its
// defaults in: the start (cfg.Threshold, 0.9) and the floor (0.05).
func ladder(n int, cfg *Config, minThreshold *float64) error {
	if n <= 0 {
		return fmt.Errorf("assocmine: TopPairs needs n > 0, got %d", n)
	}
	if *minThreshold == 0 {
		*minThreshold = 0.05
	}
	if *minThreshold < 0 || *minThreshold > 1 {
		return fmt.Errorf("assocmine: minThreshold must be in (0,1], got %v", *minThreshold)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.9
	}
	if cfg.Threshold < *minThreshold {
		return fmt.Errorf("assocmine: starting threshold %v below floor %v", cfg.Threshold, *minThreshold)
	}
	return nil
}

// topLoop is the threshold-lowering search as a retry loop: query at
// cfg.Threshold and geometrically lower the threshold until n pairs are
// found or minThreshold is hit, every attempt a whole run.
func topLoop(n int, cfg Config, minThreshold float64, query func(Config) (*Result, error)) ([]Pair, error) {
	if err := ladder(n, &cfg, &minThreshold); err != nil {
		return nil, err
	}
	rec := obs.OrNop(cfg.Recorder)
	for {
		rec.Add(obs.CounterTopPairsAttempts, 1)
		res, err := query(cfg)
		if err != nil {
			return nil, err
		}
		if len(res.Pairs) >= n {
			return res.Pairs[:n], nil
		}
		if cfg.Threshold <= minThreshold {
			// Floor reached: return everything found.
			return res.Pairs, nil
		}
		cfg.Threshold = max(cfg.Threshold*0.7, minThreshold)
	}
}

// hitBuffers recycles scan buffers: a search's hits are its largest
// allocation and dead when it returns.
var hitBuffers = sync.Pool{New: func() any { return new([]pairs.Scored) }}

// search walks topLoop's ladder, from cfg.Threshold down to the floor,
// in one run over a resident sketch (col < 0: every pair) and one scan
// under the floor's parameters. A step's candidates are the hits its own
// parameters admit, so they nest as the threshold falls: the pairs
// verified so far are the current step's candidates, and its answer
// those at or above its threshold. Verification runs at the floor,
// keeping every similarity a later step can ask for, and a step that
// admits nothing new scans nothing. So the search counts once, and
// estimates and verifies a pair once, when the loop's first step to emit
// it would: never more than the loop, whichever step ends it. attempts
// counts the steps; candidates, pairs_verified and false_positives are
// the last one's.
func search(d *Dataset, s Resident, col, n int, cfg Config, floor float64) ([]Pair, error) {
	if err := ladder(n, &cfg, &floor); err != nil {
		return nil, err
	}
	r, pre, err := s.query(d, cfg)
	if err != nil {
		return nil, err
	}
	r.column = col
	sk, err := r.sketch(pre)
	if err != nil {
		return nil, err
	}
	at := func(t float64) candidate.Params { c := r.cfg; c.Threshold = t; return c.params() }
	var se *candidate.Kernel
	buf := hitBuffers.Get().(*[]pairs.Scored)
	defer hitBuffers.Put(buf)
	hits, err := r.candidates(scheme{generate: func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
		ix, err := r.index(sk)
		if err == nil {
			se, err = ix.Search(at(floor))
		}
		if err != nil {
			return nil, err
		}
		return r.scan(se, (*buf)[:0], tick)
	}}, sk)
	if err != nil {
		return nil, err
	}
	*buf = hits // as grown; found and top below are copies
	t := r.cfg.Threshold
	r.cfg.Threshold, r.st.Candidates = floor, 0
	var found, top []pairs.Scored
	for {
		r.rec.Add(obs.CounterTopPairsAttempts, 1)
		var fresh []pairs.Scored
		fresh, hits = se.Step(at(t), hits)
		r.st.Candidates += len(fresh)
		if len(fresh) > 0 && !r.cfg.SkipVerify {
			if fresh, err = r.verify(scheme{}, fresh); err != nil {
				return nil, err
			}
		}
		found = append(found, fresh...)
		top = top[:0]
		for _, p := range found {
			if r.cfg.SkipVerify || p.Exact >= t {
				top = append(top, p)
			}
		}
		if len(top) >= n || t <= floor {
			break
		}
		t = max(t*0.7, floor)
	}
	if !r.cfg.SkipVerify {
		r.st.Verified, r.st.FalsePositives = len(top), r.st.Candidates-len(top)
	}
	r.finish()
	out := r.result(top, !r.cfg.SkipVerify).Pairs
	return out[:min(n, len(out))], nil
}
