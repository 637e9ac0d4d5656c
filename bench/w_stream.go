package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"assocmine"
	"assocmine/internal/dist"
)

// streamSig is the out-of-core, phase-1-bound workload: Zipf market rows
// streamed from disk, where decode and fold dominate. The dist segment
// runs the same kernels behind the pipe protocol, so a fold gain must
// show in both MH segments and a protocol cost in one only.
type streamSig struct {
	rows, zipfCols, pairs int
	k                     int
	threshold             float64

	gen           *marketGen
	truth         map[uint64]float64
	arows, carows string
	fdA, fdC      *assocmine.FileDataset
	self          string
}

// distWorkers is how many worker subprocesses the dist segment runs at once.
const distWorkers = 2

func newStreamSig(sz sizing) *streamSig {
	w := &streamSig{rows: 460_000, zipfCols: 16384, pairs: 256, k: 64, threshold: 0.7}
	if sz.tiny {
		w.rows, w.zipfCols, w.pairs = 6000, 512, 32
	}
	return w
}

func (w *streamSig) generate(dir string, seed uint64) (map[string]uint64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	w.self = self
	// One planted event per row: about rows/pairs supporting rows a pair,
	// similarities spread over 0.30–0.95 so a third of them are truth.
	w.gen = &marketGen{rows: w.rows, zipfCols: w.zipfCols, meanLen: 12, eventsPerRow: 1,
		groups: spread(w.pairs, 0.30, 0.95), seed: seed}
	w.arows = filepath.Join(dir, "market.arows")
	w.carows = filepath.Join(dir, "market.carows")
	if err := saveARows(w.arows, w.gen); err != nil {
		return nil, err
	}
	w.truth = w.gen.sims(0)
	return map[string]uint64{"stream-sig/market": uint64(w.gen.digest)}, nil
}

func (w *streamSig) setup(part func(string, func() error) error) error {
	if err := part("matrix.encode_carows_s", func() error { return transcode(w.arows, w.carows) }); err != nil {
		return err
	}
	var err error
	if w.fdA, err = assocmine.OpenFileDataset(w.arows); err != nil {
		return err
	}
	w.fdC, err = assocmine.OpenFileDataset(w.carows)
	return err
}

func (w *streamSig) config(a assocmine.Algorithm) assocmine.Config {
	return assocmine.Config{Algorithm: a, Threshold: w.threshold, K: w.k, Seed: sysSeed, Workers: 1}
}

func (w *streamSig) runDist() (*dist.Result, error) {
	return dist.Run(dist.Config{
		Path: w.arows, Algorithm: dist.MinHash, Threshold: w.threshold, K: w.k, Seed: sysSeed,
		Workers: distWorkers, WorkerArgv: []string{w.self, "-worker"},
	})
}

func (w *streamSig) round() (*roundRec, error) {
	r := &roundRec{}
	t := time.Now()
	r.runJob("seg.mh_arows_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		return w.fdA.SimilarPairs(w.config(assocmine.MinHash))
	})
	r.runJob("seg.kmh_carows_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		return w.fdC.SimilarPairs(w.config(assocmine.KMinHash))
	})
	r.runJob("seg.dist_mh_2w_s", w.threshold, w.truth, func() (*assocmine.Result, error) {
		dr, err := w.runDist()
		if err != nil {
			return nil, err
		}
		res := &assocmine.Result{}
		for _, p := range dr.Pairs {
			res.Pairs = append(res.Pairs, assocmine.Pair(p))
		}
		return res, nil
	})
	r.wall = time.Since(t).Seconds()
	return r, nil
}

func (w *streamSig) check(r, warm *roundRec, t *tally) {
	// The house invariant: the distributed result is pair for pair the
	// single-process one.
	if d, s := r.job("seg.dist_mh_2w_s"), r.job("seg.mh_arows_s"); d.err == nil && s.err == nil {
		if len(d.res.Pairs) != len(s.res.Pairs) {
			d.bad = "dist result differs from the single-process result"
		}
		for i := range s.res.Pairs {
			if d.bad == "" && d.res.Pairs[i] != s.res.Pairs[i] {
				d.bad = fmt.Sprintf("dist pair %d differs from the single-process result", i)
			}
		}
	}
	checkJobs(r, warm, t)
}

func (w *streamSig) traced(tr *tracer, m *metrics, rounds []*roundRec) error {
	last := rounds[len(rounds)-1]
	rp := newReplay(tr)
	entries := float64(w.gen.entries)
	cols := float64(w.gen.NumCols())

	// Probes: the read floor and each decoder alone.
	var floorBytes int64
	var floorS float64
	if _, err := tr.run(-1, "io.Copy(arows)", func() (err error) {
		floorBytes, floorS, err = floorRead(w.arows)
		return err
	}); err != nil {
		return err
	}
	m.set("matrix.floor_read_mb_per_s", ratio(float64(floorBytes)/1e6, floorS))
	var bytesA, bytesC int64
	decA, err := tr.run(-1, "matrix.Scan(arows)", func() (err error) { bytesA, err = decodeOnly(w.arows); return err })
	if err != nil {
		return err
	}
	decC, err := tr.run(-1, "matrix.Scan(carows)", func() (err error) { bytesC, err = decodeOnly(w.carows); return err })
	if err != nil {
		return err
	}
	m.set("matrix.decode_arows_s", decA)
	m.set("matrix.decode_arows_ns_per_entry", ratio(decA*1e9, entries))
	m.set("matrix.decode_arows_mb_per_s", ratio(float64(bytesA)/1e6, decA))
	m.set("matrix.decode_carows_s", decC)
	m.set("matrix.decode_carows_ns_per_entry", ratio(decC*1e9, entries))
	m.set("matrix.decode_carows_mb_per_s", ratio(float64(bytesC)/1e6, decC))
	m.set("matrix.carows_bytes_ratio", ratio(float64(bytesC), float64(bytesA)))

	// MH over .arows: fold → row-sort → verify.
	var mh *mhFold
	var mhCand cands
	mhJob := last.job("seg.mh_arows_s")
	err = rp.segment(mhJob, m.vals[mhJob.seg], func(root int) (verified, error) {
		src, err := openSource(w.arows)
		if err != nil {
			return verified{}, err
		}
		d, err := rp.layer(root, "minhash.FoldRow+Merge+Finish", "", func() (err error) { mh, err = foldMH(src, w.k); return err })
		if err != nil {
			return verified{}, err
		}
		// The fold pass re-scans the file: book the decoder's share to matrix.
		rp.sum["minhash.fold_s"] += d - decA
		if _, err := rp.layer(root, "candidate.RowSortMH", "candidate.rowsort_s", func() (err error) {
			mhCand, err = rowSortMH(mh, w.threshold)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src, mhCand, mhJob, 0)
	})
	if err != nil {
		return err
	}
	m.set("minhash.fold_ns_per_entry_hash", ratio(rp.sum["minhash.fold_s"]*1e9, entries*float64(w.k)))
	m.set("minhash.signature_cells", float64(w.k)*cols)
	m.set("minhash.merge_s", mh.mergeS)
	m.set("minhash.snapshot_mb_per_s", ratio(float64(mh.snapshotBytes)/1e6, mh.snapshotS))
	m.set("candidate.rowsort_ns_per_cell", ratio(rp.sum["candidate.rowsort_s"]*1e9, float64(w.k)*cols))
	m.set("candidate.mh_yield", ratio(float64(mhJob.res.Stats.Verified), float64(mhJob.res.Stats.Candidates)))

	// K-MH over .carows: fold → hash-count → verify.
	var kmh *kmhFold
	var kmhCand cands
	kmhJob := last.job("seg.kmh_carows_s")
	err = rp.segment(kmhJob, m.vals[kmhJob.seg], func(root int) (verified, error) {
		src, err := openSource(w.carows)
		if err != nil {
			return verified{}, err
		}
		d, err := rp.layer(root, "kminhash.FoldRow+Merge+Finish", "", func() (err error) { kmh, err = foldKMH(src, w.k); return err })
		if err != nil {
			return verified{}, err
		}
		rp.sum["kminhash.fold_s"] += d - decC
		if _, err := rp.layer(root, "candidate.HashCountKMH", "candidate.hashcount_kmh_s", func() (err error) {
			kmhCand, err = hashCountKMH(kmh, w.threshold)
			return err
		}); err != nil {
			return verified{}, err
		}
		return rp.verify(root, src, kmhCand, kmhJob, 0)
	})
	if err != nil {
		return err
	}
	m.set("kminhash.fold_ns_per_entry", ratio(rp.sum["kminhash.fold_s"]*1e9, entries))
	m.set("kminhash.updates", float64(kmh.updates))
	m.set("kminhash.merge_s", kmh.mergeS)
	m.set("candidate.hashcount_kmh_ns_per_cell", ratio(rp.sum["candidate.hashcount_kmh_s"]*1e9, float64(kmh.cells)))
	m.set("candidate.increments", float64(mhCand.work+kmhCand.work))
	m.set("candidate.kmh_yield", ratio(float64(kmhJob.res.Stats.Verified), float64(kmhJob.res.Stats.Candidates)))

	// The dist segment is spanned per call; its Stats split the phases.
	kids := cpuSeconds(syscall.RUSAGE_CHILDREN)
	var dr *dist.Result
	distS, err := tr.run(-1, "dist.Run", func() (err error) { dr, err = w.runDist(); return err })
	if err != nil {
		return fmt.Errorf("dist.Run: %w", err)
	}
	m.set("dist.run_s", distS)
	m.set("dist.signature_s", dr.Stats.SignatureTime.Seconds())
	m.set("dist.candidate_s", dr.Stats.CandidateTime.Seconds())
	m.set("dist.verify_s", dr.Stats.VerifyTime.Seconds())
	m.set("dist.bytes_shipped", float64(dr.Stats.BytesShipped))
	m.set("dist.jobs", float64(dr.Stats.Jobs))
	m.set("dist.restarts", float64(dr.Stats.Restarts))
	cpu := cpuSeconds(syscall.RUSAGE_CHILDREN) - kids
	m.set("dist.cpu_s", cpu)
	var mhCPU []float64
	for _, r := range rounds {
		mhCPU = append(mhCPU, r.job("seg.mh_arows_s").cpu)
	}
	m.set("dist.work_inflation", ratio(cpu, median(mhCPU)))
	m.set("dist.speedup", ratio(m.vals["seg.mh_arows_s"], m.vals["seg.dist_mh_2w_s"]))

	statsTotals(last, m)
	rp.flush(m, 0)
	m.set("bench.trace_overhead_ratio", ratio(rp.layerS+distS-m.vals["bench.wall_raw_s"], m.vals["bench.wall_raw_s"]))
	return nil
}

func (w *streamSig) close() {}
