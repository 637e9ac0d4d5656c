package driver

import (
	"errors"
	"sync"
	"time"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// hitBuffers recycles scan buffers: a search's hits are its largest
// allocation and dead when it returns.
var hitBuffers = sync.Pool{New: func() any { return new([]pairs.Scored) }}

// Search walks a threshold-lowering ladder — from Params.Threshold down
// by factors of 0.7 to floor, until n pairs clear the step's threshold —
// in one run over the adopted sketch (of the pairs containing
// Input.Column, when it names one) and one scan under the floor's
// parameters. A
// step's candidates are the hits its own parameters admit, so they nest
// as the threshold falls: the pairs verified so far are the current
// step's candidates, and its answer those at or above its threshold.
// Verification runs at the floor, keeping every similarity a later step
// can ask for, and a step that admits nothing new scans nothing. So the
// search counts once, and estimates and verifies a pair once, when a
// loop of whole runs' first step to emit it would. toppairs_attempts
// counts the steps; candidates, pairs_verified and false_positives are
// the last one's. The answer, at most n pairs, comes by decreasing
// similarity. §6's Rules has no search: its candidates come from a
// confidence filter over its pair table, which no threshold ladder
// shrinks.
func Search(in Input, n int, floor float64) ([]pairs.Scored, error) {
	if in.Params.Algo == fold.Rules {
		return nil, errors.New("assocmine: Rules has no threshold-lowering search; mine it with SimilarPairsWith")
	}
	r, err := start(in)
	if err != nil {
		return nil, err
	}
	sk, err := r.sketch()
	if err != nil {
		return nil, err
	}
	at := func(t float64) candidate.Params { p := r.p; p.Threshold = t; return p }
	var se *candidate.Kernel
	buf := hitBuffers.Get().(*[]pairs.Scored)
	defer hitBuffers.Put(buf)
	hits, err := phase(r, obs.PhaseCandidates, func(tick obs.Tick) ([]pairs.Scored, error) {
		se, err = r.kernel(at(floor), sk, true)
		if err != nil {
			return nil, err
		}
		hits, work, err := r.scan(se, (*buf)[:0], tick)
		if err != nil {
			return nil, err
		}
		r.rec.Add(se.Counter, work)
		return hits, nil
	})
	if err != nil {
		return nil, err
	}
	r.ran(obs.GaugeCandidateWorkers, true)
	*buf = hits // as grown; found and top below are copies
	t := r.p.Threshold
	r.p.Threshold = floor
	var found, top []pairs.Scored
	for {
		r.rec.Add(obs.CounterTopPairsAttempts, 1)
		var fresh []pairs.Scored
		fresh, hits = se.Step(at(t), hits)
		r.candidates += len(fresh)
		if len(fresh) > 0 && !in.SkipVerify {
			if fresh, err = r.verify(nil, fresh); err != nil {
				return nil, err
			}
		}
		found = append(found, fresh...)
		top = top[:0]
		for _, p := range found {
			if in.SkipVerify || p.Exact >= t {
				top = append(top, p)
			}
		}
		if len(top) >= n || t <= floor {
			break
		}
		t = max(t*0.7, floor)
	}
	if !in.SkipVerify {
		r.verified, r.falsePositives = len(top), r.candidates-len(top)
	}
	r.finish()
	pairs.SortScored(top)
	return top[:min(n, len(top))], nil
}

// Progressive runs M-LSH band by band, §4's online framework: each
// band's fresh pairs, read off the M-LSH index (Index.Band), are
// verified by their own exact pass and handed to fn with the count found
// so far, until fn returns false. The pairs found up to then come back by
// decreasing similarity. The candidate and verify phases interleave, so
// their spans are recorded once at the end, with the summed durations.
func Progressive(in Input, fn func(band int, fresh []pairs.Scored, found int) bool) ([]pairs.Scored, error) {
	r, err := start(in)
	if err != nil {
		return nil, err
	}
	sk, err := r.sketch()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	ix, err := r.index(r.p, sk)
	if err != nil {
		return nil, err
	}
	var all, fresh []pairs.Scored
	var work int64
	var verifyTime time.Duration
	ctick := r.prog.enter(obs.PhaseCandidates)
	for b := 0; b < r.p.L; b++ {
		var did int64
		if fresh, did, err = ix.Band(fresh[:0], b); err != nil {
			return nil, err
		}
		work += did
		vstart := time.Now()
		verified, err := r.exact(fresh, nil, nil)
		verifyTime += time.Since(vstart)
		if err != nil {
			return nil, err
		}
		r.candidates += len(fresh)
		all = append(all, verified...)
		if ctick != nil {
			ctick(int64(b+1), int64(r.p.L))
		}
		if !fn(b, verified, len(all)) {
			break
		}
	}
	r.rec.PhaseStart(obs.PhaseCandidates)
	r.rec.PhaseEnd(obs.PhaseCandidates, time.Since(begin)-verifyTime)
	r.rec.PhaseStart(obs.PhaseVerify)
	r.rec.PhaseEnd(obs.PhaseVerify, verifyTime)
	r.rec.Add(obs.CounterBucketPairs, work)
	r.prog.finish(obs.PhaseCandidates)
	r.prog.enter(obs.PhaseVerify)
	r.prog.finish(obs.PhaseVerify)
	r.verified, r.falsePositives = len(all), r.candidates-len(all)
	r.finish()
	pairs.SortScored(all)
	return all, nil
}
