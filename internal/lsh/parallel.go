// Parallel banding: bands are independent by construction (Lemma 2 —
// each band hashes its own rows of the signature matrix and contributes
// candidates on its own), so the banding pass shards at band
// granularity. Each worker builds the bucket table of one band at a
// time and emits that band's local pair list; the lists are merged and
// deduplicated into one pairs.Set sequentially in band order, so the
// resulting candidate SET and all Stats are identical to the serial
// pass for any worker count.
package lsh

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"assocmine/internal/minhash"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// CandidatesParallelProgress is Candidates with the l bands sharded
// across workers, a progress hook and cancellation. workers <= 1 runs
// the serial pass; negative workers means GOMAXPROCS. The candidate
// set, Bands, BucketPairs and Candidates statistics are identical to
// the serial pass. tick (when non-nil) receives (bands hashed, total
// bands), from worker goroutines in the parallel path; a cancelled ctx
// (nil means Background) aborts at band granularity with ctx.Err().
func CandidatesParallelProgress(ctx context.Context, sig *minhash.Signatures, r, l, workers int, tick obs.Tick) (*pairs.Set, Stats, error) {
	if err := checkRL(r, l); err != nil {
		return nil, Stats{}, err
	}
	if sig.K < r*l {
		return nil, Stats{}, fmt.Errorf("lsh: need k >= r*l = %d min-hash values, have %d (use SampledCandidates)", r*l, sig.K)
	}
	return bandCandidatesParallel(ctx, sig, disjointBands(r, l), workers, tick)
}

// SampledCandidatesParallelProgress is SampledCandidates under the
// CandidatesParallelProgress conventions; the band layout is drawn from
// the same sequential RNG as the serial variant, so the two produce
// identical candidate sets.
func SampledCandidatesParallelProgress(ctx context.Context, sig *minhash.Signatures, r, l int, seed uint64, workers int, tick obs.Tick) (*pairs.Set, Stats, error) {
	if err := checkRL(r, l); err != nil {
		return nil, Stats{}, err
	}
	if sig.K < r {
		return nil, Stats{}, fmt.Errorf("lsh: need k >= r = %d min-hash values, have %d", r, sig.K)
	}
	return bandCandidatesParallel(ctx, sig, sampledBands(sig.K, r, l, seed), workers, tick)
}

func bandCandidatesParallel(ctx context.Context, sig *minhash.Signatures, bands [][]int, workers int, tick obs.Tick) (*pairs.Set, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(bands) {
		workers = len(bands)
	}
	if workers <= 1 {
		// The serial pass cancels through the progress hook's existing
		// abort channel (returning false stops the band loop), with the
		// real cause recovered from ctx afterwards.
		total := int64(len(bands))
		progress := func(band int, _ []pairs.Pair) bool {
			if tick != nil {
				tick(int64(band+1), total)
			}
			return ctx.Err() == nil
		}
		set, st, err := bandCandidates(sig, bands, progress)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, Stats{}, err
		}
		return set, st, nil
	}

	outs := make([][]pairs.Pair, len(bands))
	var next atomic.Int64
	var bandsDone atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bd := newBander(sig)
			for ctx.Err() == nil {
				b := int(next.Add(1)) - 1
				if b >= len(bands) {
					return
				}
				// Cross-band duplicates fall out at the merge.
				outs[b] = bd.band(bands[b], nil)
				if tick != nil {
					tick(bandsDone.Add(1), int64(len(bands)))
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	set := pairs.NewSet(1024)
	var st Stats
	for b := range outs {
		st.Bands++
		st.BucketPairs += int64(len(outs[b]))
		for _, p := range outs[b] {
			set.Add(p.I, p.J)
		}
	}
	st.Candidates = set.Len()
	return set, st, nil
}
