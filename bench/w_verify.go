package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"time"

	"assocmine"
)

// verifyCluster is the phase-3-bound workload, with two uses of verify.
// D1's near-duplicate clusters give K-MH a hundred thousand candidates
// whose bit-columns the packed popcount kernel sweeps; D2's sparse pairs
// are verified under a memory budget far below the counter table, so the
// budgeted pass spills sorted runs and merges them. Candidates and fold
// are small in both.
type verifyCluster struct {
	rows1, zipf1, groups, members  int
	rows2, zipf2, groups2, events2 int
	threshold1, threshold2         float64
	spillBudget                    int64

	gen1, gen2     *marketGen
	truth1, truth2 map[uint64]float64
	path1, path2   string
	d1, d2         *assocmine.Dataset
}

const (
	clusterK          = 32
	spillK            = 40
	spillR, spillL    = 5, 8
	maxSpillRuns      = 200
	scalarOracleEvery = 16
)

func newVerifyCluster(sz sizing) *verifyCluster {
	w := &verifyCluster{
		rows1: 260_000, zipf1: 4096, groups: 64, members: 80,
		rows2: 117_000, zipf2: 4096, groups2: 26_000, events2: 3,
		// M-LSH with r = 5, l = 8 detects a 0.8 pair with probability 0.96
		// and a 0.5 pair with 0.22, so D2 asks for 0.8.
		threshold1: 0.5, threshold2: 0.8, spillBudget: 640 << 10,
	}
	if sz.tiny {
		w.rows1, w.zipf1, w.groups, w.members = 4000, 256, 8, 16
		w.rows2, w.zipf2, w.groups2 = 2500, 256, 300
		w.spillBudget = 12 << 10
	}
	return w
}

func (w *verifyCluster) generate(dir string, seed uint64) (map[string]uint64, error) {
	// D1: one cluster event per row; member inclusion 0.50–0.95 by group,
	// so pair similarity q/(2-q) runs from 0.33 to 0.90.
	clusters := make([]plantGroup, w.groups)
	for i := range clusters {
		clusters[i] = plantGroup{members: w.members, incl: 0.50 + 0.45*float64(i)/float64(max(w.groups-1, 1))}
	}
	w.gen1 = &marketGen{rows: w.rows1, zipfCols: w.zipf1, meanLen: 12, eventsPerRow: 1, groups: clusters, seed: seed}
	w.path1 = filepath.Join(dir, "clusters.arows")
	if err := saveARows(w.path1, w.gen1); err != nil {
		return nil, err
	}
	w.truth1 = w.gen1.sims(0)
	// D2: rows that are mostly events of sparse four-column groups (a
	// short Zipf part). An event updates up to six pair counters for four
	// entries folded, so verification outweighs the fold. Inclusion
	// 0.80–0.97 puts pair similarity q/(2-q) at 0.67–0.94.
	quads := make([]plantGroup, w.groups2)
	for i := range quads {
		quads[i] = plantGroup{members: 4, incl: 0.80 + 0.17*float64(i)/float64(max(w.groups2-1, 1))}
	}
	w.gen2 = &marketGen{rows: w.rows2, zipfCols: w.zipf2, meanLen: 2, eventsPerRow: w.events2,
		groups: quads, seed: seed + 1<<32}
	w.path2 = filepath.Join(dir, "sparse.arows")
	if err := saveARows(w.path2, w.gen2); err != nil {
		return nil, err
	}
	w.truth2 = w.gen2.sims(0)
	return map[string]uint64{
		"verify-cluster/clusters": uint64(w.gen1.digest),
		"verify-cluster/sparse":   uint64(w.gen2.digest),
	}, nil
}

func (w *verifyCluster) setup(part func(string, func() error) error) error {
	return part("matrix.load_s", func() (err error) {
		if w.d1, err = assocmine.LoadDataset(w.path1); err != nil {
			return err
		}
		w.d2, err = assocmine.LoadDataset(w.path2)
		return err
	})
}

func (w *verifyCluster) round() (*roundRec, error) {
	r := &roundRec{}
	t := time.Now()
	r.runJob("seg.packed_s", w.threshold1, w.truth1, func() (*assocmine.Result, error) {
		return assocmine.SimilarPairs(w.d1, assocmine.Config{
			Algorithm: assocmine.KMinHash, Threshold: w.threshold1, K: clusterK, Seed: sysSeed, Workers: 1,
		})
	})
	r.runJob("seg.spill_s", w.threshold2, w.truth2, func() (*assocmine.Result, error) {
		return assocmine.SimilarPairs(w.d2, assocmine.Config{
			Algorithm: assocmine.MinLSH, Threshold: w.threshold2, K: spillK, R: spillR, L: spillL,
			Seed: sysSeed, Workers: 1, MemoryBudget: w.spillBudget,
		})
	})
	r.wall = time.Since(t).Seconds()
	return r, nil
}

func (w *verifyCluster) check(r, warm *roundRec, t *tally) {
	// Guard rails from sizing. A 256 KB budget on the cluster data opened
	// more than 20 000 run files and died with "too many open files"
	// (a known defect, see README.md); the benchmark stays far from it.
	if j := r.job("seg.spill_s"); j.err != nil && errors.Is(j.err, syscall.EMFILE) {
		j.bad = fmt.Sprintf("spill budget %d B is too small for this input: %v", w.spillBudget, j.err)
	} else if j.err == nil && j.res.Stats.SpillRuns > maxSpillRuns {
		j.bad = fmt.Sprintf("spill budget %d B gives %d spill runs, over the benchmark's cap of %d: raise the budget",
			w.spillBudget, j.res.Stats.SpillRuns, maxSpillRuns)
	} else if j.err == nil && j.res.Stats.SpillRuns == 0 {
		j.bad = "the budgeted segment did not spill: it no longer measures the spill path"
	}
	if j := r.job("seg.packed_s"); j.err == nil && j.res.Stats.PackedWords == 0 {
		j.bad = "the cluster segment did not run the packed kernel"
	}
	checkJobs(r, warm, t)
}

func (w *verifyCluster) traced(tr *tracer, m *metrics, rounds []*roundRec) error {
	last := rounds[len(rounds)-1]
	rp := newReplay(tr)
	src1, src2 := memSource(w.d1), memSource(w.d2)

	// D1: K-MH fold → hash-count → packed verify, plus the scalar oracle.
	var kmh *kmhFold
	var c1 cands
	var v1 verified
	want := last.job("seg.packed_s")
	err := rp.segment(want, m.vals[want.seg], func(root int) (verified, error) {
		if _, err := rp.layer(root, "kminhash.FoldRow+Merge+Finish", "kminhash.fold_s", func() (err error) {
			kmh, err = foldKMH(src1, clusterK)
			return err
		}); err != nil {
			return verified{}, err
		}
		if _, err := rp.layer(root, "candidate.HashCountKMH", "candidate.hashcount_kmh_s", func() (err error) {
			c1, err = hashCountKMH(kmh, w.threshold1)
			return err
		}); err != nil {
			return verified{}, err
		}
		var err error
		v1, err = rp.verify(root, src1, c1, want, 0)
		return v1, err
	})
	if err != nil {
		return err
	}
	m.set("kminhash.fold_ns_per_entry", ratio(rp.sum["kminhash.fold_s"]*1e9, float64(w.gen1.entries)))
	m.set("kminhash.updates", float64(kmh.updates))
	m.set("kminhash.merge_s", kmh.mergeS)
	m.set("candidate.hashcount_kmh_ns_per_cell", ratio(rp.sum["candidate.hashcount_kmh_s"]*1e9, float64(kmh.cells)))
	m.set("candidate.increments", float64(c1.work))
	m.set("candidate.kmh_yield", ratio(float64(want.res.Stats.Verified), float64(want.res.Stats.Candidates)))
	scalarNs, err := rp.scalarOracle(-1, src1, c1, scalarOracleEvery, w.threshold1, v1)
	if err != nil {
		return err
	}

	// D2: MH fold → banding → budgeted verify, which spills.
	var mh *mhFold
	var c2 cands
	want = last.job("seg.spill_s")
	err = rp.segment(want, m.vals[want.seg], func(root int) (verified, error) {
		if _, err := rp.layer(root, "minhash.FoldRow+Merge+Finish", "minhash.fold_s", func() (err error) {
			mh, err = foldMH(src2, spillK)
			return err
		}); err != nil {
			return verified{}, err
		}
		if _, err := rp.layer(root, "lsh.Candidates", "lsh.banding_s", func() (err error) {
			c2, err = bandLSH(mh, spillR, spillL)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src2, c2, want, w.spillBudget)
	})
	if err != nil {
		return err
	}
	cols2 := float64(w.gen2.NumCols())
	m.set("minhash.fold_ns_per_entry_hash", ratio(rp.sum["minhash.fold_s"]*1e9, float64(w.gen2.entries)*spillK))
	m.set("minhash.signature_cells", spillK*cols2)
	m.set("minhash.merge_s", mh.mergeS)
	m.set("minhash.snapshot_mb_per_s", ratio(float64(mh.snapshotBytes)/1e6, mh.snapshotS))
	m.set("lsh.ns_per_cell", ratio(rp.sum["lsh.banding_s"]*1e9, spillR*spillL*cols2))
	m.set("lsh.bucket_pairs", float64(c2.work))
	m.set("lsh.yield", ratio(float64(want.res.Stats.Verified), float64(want.res.Stats.Candidates)))

	statsTotals(last, m)
	rp.flush(m, scalarNs)
	m.set("bench.trace_overhead_ratio", ratio(rp.layerS-m.vals["bench.wall_raw_s"], m.vals["bench.wall_raw_s"]))
	return nil
}

func (w *verifyCluster) close() {}
