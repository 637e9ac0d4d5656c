package main

import (
	"fmt"
	"path/filepath"
	"time"

	"assocmine"
)

// candWide is the in-memory, phase-2-bound workload, and the
// precomputed-index use of the signature layers: with tens of thousands
// of columns and about ten supporting rows a pair (the regime support
// pruning cannot reach) candidate generation is most of every job, and a
// phase-1 optimisation must predict "no change" on its wall_s.
type candWide struct {
	rows, zipfCols, pairs int
	threshold             float64
	bpsBudget             int

	gen         *marketGen
	truth       map[uint64]float64
	path        string
	d           *assocmine.Dataset
	sig64, sig2 *assocmine.Signatures
	sk          *assocmine.Sketches
}

const (
	candSigK, candBandK, candSketchK = 64, 200, 256
	candR, candL                     = 5, 40
	// bpsMapEntryBytes is what one entry of the sampler's counts map
	// costs with its bucket overhead; bpsMapCap is the ceiling the
	// workload must stay under. On 150k × 92k Zipf rows the map reached
	// about 1 GB and one round took 8 s, then 16 s.
	bpsMapEntryBytes = 40
	bpsMapCap        = 256 << 20
)

func newCandWide(sz sizing) *candWide {
	w := &candWide{rows: 58_000, zipfCols: 16384, pairs: 11_600, threshold: 0.5, bpsBudget: 32}
	if sz.tiny {
		w.rows, w.zipfCols, w.pairs = 3000, 512, 300
	}
	return w
}

func (w *candWide) generate(dir string, seed uint64) (map[string]uint64, error) {
	// Two planted events per row: about 2·rows/pairs supporting rows a pair.
	w.gen = &marketGen{rows: w.rows, zipfCols: w.zipfCols, meanLen: 12, eventsPerRow: 2,
		groups: spread(w.pairs, 0.30, 0.95), seed: seed}
	w.path = filepath.Join(dir, "wide.arows")
	if err := saveARows(w.path, w.gen); err != nil {
		return nil, err
	}
	// Every inspected pair can become a map entry, so this is an upper bound.
	if need := w.gen.pairDraws * bpsMapEntryBytes; need >= bpsMapCap {
		return nil, fmt.Errorf("cand-wide: BPS would inspect %d in-row pairs, up to %d MiB of counts map (cap %d MiB): shrink the input",
			w.gen.pairDraws, need>>20, bpsMapCap>>20)
	}
	w.truth = w.gen.sims(0)
	return map[string]uint64{"cand-wide/wide": uint64(w.gen.digest)}, nil
}

func (w *candWide) setup(part func(string, func() error) error) error {
	err := part("matrix.load_s", func() (err error) { w.d, err = assocmine.LoadDataset(w.path); return err })
	if err != nil {
		return err
	}
	if w.sig64, err = assocmine.ComputeSignatures(w.d, candSigK, sysSeed, 1); err != nil {
		return err
	}
	if w.sig2, err = assocmine.ComputeSignatures(w.d, candBandK, sysSeed, 1); err != nil {
		return err
	}
	w.sk, err = assocmine.ComputeSketches(w.d, candSketchK, sysSeed, 1)
	return err
}

func (w *candWide) config(a assocmine.Algorithm) assocmine.Config {
	return assocmine.Config{Algorithm: a, Threshold: w.threshold, Seed: sysSeed, Workers: 1,
		R: candR, L: candL, SampleBudget: w.bpsBudget}
}

func (w *candWide) round() (*roundRec, error) {
	r := &roundRec{}
	t := time.Now()
	r.runJob("seg.mh_rowsort_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		return assocmine.SimilarPairsWithSignatures(w.d, w.sig64, w.config(assocmine.MinHash))
	})
	r.runJob("seg.kmh_hashcount_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		return assocmine.SimilarPairsWithSketches(w.d, w.sk, w.config(assocmine.KMinHash))
	})
	r.runJob("seg.mlsh_banding_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		return assocmine.SimilarPairsWithSignatures(w.d, w.sig2, w.config(assocmine.MinLSH))
	})
	r.runJob("seg.bps_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		return assocmine.SimilarPairs(w.d, w.config(assocmine.BPS))
	})
	r.wall = time.Since(t).Seconds()
	return r, nil
}

func (w *candWide) check(r, warm *roundRec, t *tally) { checkJobs(r, warm, t) }

func (w *candWide) traced(tr *tracer, m *metrics, rounds []*roundRec) error {
	last := rounds[len(rounds)-1]
	rp := newReplay(tr)
	src := memSource(w.d)
	entries := float64(w.gen.entries)
	cols := float64(w.gen.NumCols())

	// The set-up's folds, by hand: they feed the segments below and
	// price the signature layers for setup_s. They are not round work.
	var mh64, mh200 *mhFold
	var kmh *kmhFold
	d64, err := tr.run(-1, "minhash.FoldRow+Merge+Finish(k=64)", func() (err error) { mh64, err = foldMH(src, candSigK); return err })
	if err != nil {
		return err
	}
	d200, err := tr.run(-1, "minhash.FoldRow+Merge+Finish(k=200)", func() (err error) { mh200, err = foldMH(src, candBandK); return err })
	if err != nil {
		return err
	}
	dk, err := tr.run(-1, "kminhash.FoldRow+Merge+Finish(k=256)", func() (err error) { kmh, err = foldKMH(src, candSketchK); return err })
	if err != nil {
		return err
	}
	m.set("minhash.fold_s", d64+d200)
	m.set("minhash.fold_ns_per_entry_hash", ratio((d64+d200)*1e9, entries*(candSigK+candBandK)))
	m.set("minhash.signature_cells", (candSigK+candBandK)*cols)
	m.set("minhash.merge_s", mh64.mergeS+mh200.mergeS)
	m.set("minhash.snapshot_mb_per_s", ratio(float64(mh200.snapshotBytes)/1e6, mh200.snapshotS))
	m.set("kminhash.fold_s", dk)
	m.set("kminhash.fold_ns_per_entry", ratio(dk*1e9, entries))
	m.set("kminhash.updates", float64(kmh.updates))
	m.set("kminhash.merge_s", kmh.mergeS)

	var cMH, cKMH, cLSH, cBPS cands
	want := last.job("seg.mh_rowsort_s")
	err = rp.segment(want, m.vals[want.seg], func(root int) (verified, error) {
		if _, err := rp.layer(root, "candidate.RowSortMH", "candidate.rowsort_s", func() (err error) {
			cMH, err = rowSortMH(mh64, w.threshold)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src, cMH, want, 0)
	})
	if err != nil {
		return err
	}
	m.set("candidate.rowsort_ns_per_cell", ratio(rp.sum["candidate.rowsort_s"]*1e9, candSigK*cols))
	m.set("candidate.mh_yield", ratio(float64(want.res.Stats.Verified), float64(want.res.Stats.Candidates)))

	want = last.job("seg.kmh_hashcount_s")
	err = rp.segment(want, m.vals[want.seg], func(root int) (verified, error) {
		if _, err := rp.layer(root, "candidate.HashCountKMH", "candidate.hashcount_kmh_s", func() (err error) {
			cKMH, err = hashCountKMH(kmh, w.threshold)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src, cKMH, want, 0)
	})
	if err != nil {
		return err
	}
	m.set("candidate.hashcount_kmh_ns_per_cell", ratio(rp.sum["candidate.hashcount_kmh_s"]*1e9, float64(kmh.cells)))
	m.set("candidate.kmh_yield", ratio(float64(want.res.Stats.Verified), float64(want.res.Stats.Candidates)))
	m.set("candidate.increments", float64(cMH.work+cKMH.work))

	want = last.job("seg.mlsh_banding_s")
	err = rp.segment(want, m.vals[want.seg], func(root int) (verified, error) {
		if _, err := rp.layer(root, "lsh.Candidates", "lsh.banding_s", func() (err error) {
			cLSH, err = bandLSH(mh200, candR, candL)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src, cLSH, want, 0)
	})
	if err != nil {
		return err
	}
	m.set("lsh.ns_per_cell", ratio(rp.sum["lsh.banding_s"]*1e9, candR*candL*cols))
	m.set("lsh.bucket_pairs", float64(cLSH.work))
	m.set("lsh.yield", ratio(float64(want.res.Stats.Verified), float64(want.res.Stats.Candidates)))

	want = last.job("seg.bps_s")
	var bst bpsStats
	err = rp.segment(want, m.vals[want.seg], func(root int) (verified, error) {
		var sup []int64
		if _, err := rp.layer(root, "bps.Supports", "bps.supports_s", func() (err error) {
			sup, err = bpsSupports(src)
			return err
		}); err != nil {
			return verified{}, err
		}
		if _, err := rp.layer(root, "bps.Sample", "bps.sample_s", func() (err error) {
			cBPS, bst, err = bpsSample(src, sup, w.threshold, w.bpsBudget)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src, cBPS, want, 0)
	})
	if err != nil {
		return err
	}
	m.set("bps.ns_per_draw", ratio(rp.sum["bps.sample_s"]*1e9, float64(bst.inspected)))
	m.set("bps.pairs_sampled", float64(bst.inspected))
	m.set("bps.accept_ratio", ratio(float64(bst.accepts), float64(bst.inspected)))
	m.set("bps.dup_ratio", ratio(float64(bst.dups), float64(bst.accepts)))
	m.set("bps.yield", ratio(float64(want.res.Stats.Verified), float64(want.res.Stats.Candidates)))

	statsTotals(last, m)
	rp.flush(m, 0)
	m.set("bench.trace_overhead_ratio", ratio(rp.layerS-m.vals["bench.wall_raw_s"], m.vals["bench.wall_raw_s"]))
	return nil
}

func (w *candWide) close() {}
