package main

import (
	"fmt"
)

// replay is the traced round's bookkeeping. Each mining segment is
// replayed by hand through the layers' public functions (layers.go),
// one span per call, and must return the pair list the end-to-end
// segment returned, so the layer figures describe the same work. A
// layer that re-scans a file is reported net of the decode-only scan of
// that file, which gets its own span.
type replay struct {
	tr *tracer
	// sum holds additive layer figures; a workload with several segments
	// through one layer reports their total.
	sum map[string]float64
	// layerS is the total of the replayed layer spans and segS the total
	// of the end-to-end segment times they replay.
	layerS, segS float64
	// candidates and verified total the replayed phase 3 inputs/outputs,
	// spillTouches the counter updates of the jobs that spilled.
	candidates, verified int
	spillTouches         float64
}

func newReplay(tr *tracer) *replay { return &replay{tr: tr, sum: map[string]float64{}} }

// layer spans one layer call inside a segment and books its time.
func (rp *replay) layer(root int, span, metric string, f func() error) (float64, error) {
	d, err := rp.tr.run(root, span, f)
	if err != nil {
		return d, fmt.Errorf("%s: %w", span, err)
	}
	rp.layerS += d
	if metric != "" {
		rp.sum[metric] += d
	}
	return d, nil
}

// verify replays phase 3 with the kernel the end-to-end job ran — its
// Stats say which — and books the verify figures.
func (rp *replay) verify(root int, src rowSource, c cands, want *job, budget int64) (verified, error) {
	var v verified
	var err error
	st := want.res.Stats
	switch {
	case st.SpillRuns > 0:
		_, err = rp.layer(root, "verify.ExactBudgeted", "verify.spill_s", func() error {
			v, err = verifyBudgeted(src, c, want.threshold, budget)
			return err
		})
	case st.PackedWords > 0:
		_, err = rp.layer(root, "verify.ExactPacked", "verify.packed_s", func() error {
			v, err = verifyPacked(src, c, want.threshold)
			return err
		})
	default:
		_, err = rp.layer(root, "verify.Exact", "", func() error {
			v, err = verifyScalar(src, c, want.threshold)
			return err
		})
	}
	if err != nil {
		return v, err
	}
	rp.sum["verify.packed_words"] += float64(v.packedWords)
	rp.sum["verify.packed_batches"] += float64(v.packedBatch)
	rp.sum["verify.touches"] += float64(v.touches)
	rp.sum["verify.spill_runs"] += float64(v.spillRuns)
	rp.sum["verify.spill_bytes"] += float64(v.spillBytes)
	if st.SpillRuns > 0 {
		rp.spillTouches += float64(v.touches)
	}
	rp.candidates += v.candidatesIn
	rp.verified += len(v.pairs)
	return v, nil
}

// segment replays one end-to-end segment under a root span and checks
// the hand-composed pair list against the segment's own.
func (rp *replay) segment(want *job, segWall float64, body func(root int) (verified, error)) error {
	if want == nil || want.err != nil {
		return fmt.Errorf("no end-to-end result to replay")
	}
	root := rp.tr.open(-1, want.seg)
	v, err := body(root)
	rp.tr.close(root)
	if err != nil {
		return fmt.Errorf("%s: %w", want.seg, err)
	}
	rp.segS += segWall
	if !samePairs(v.pairs, want.res.Pairs) {
		return fmt.Errorf("%s: hand-composed pair list (%d pairs) differs from the end-to-end one (%d pairs)",
			want.seg, len(v.pairs), len(want.res.Pairs))
	}
	return nil
}

// flush writes the booked figures and the ratios every mining workload
// derives from them.
func (rp *replay) flush(m *metrics, scalarNsPerTouch float64) {
	words := rp.sum["verify.packed_words"]
	for name, v := range rp.sum {
		m.set(name, v)
	}
	m.set("verify.packed_ns_per_word", ratio(rp.sum["verify.packed_s"]*1e9, words))
	if words > 0 {
		m.set("verify.popcount_floor_ns_per_word", popcountFloor(int64(words))*1e9/words)
	}
	m.set("verify.spill_ns_per_touch", ratio(rp.sum["verify.spill_s"]*1e9, rp.spillTouches))
	m.set("verify.scalar_ns_per_touch", scalarNsPerTouch)
	m.set("verify.false_positive_ratio", ratio(float64(rp.candidates-rp.verified), float64(rp.candidates)))
	m.set("bench.unattributed_ratio", ratio(rp.segS-rp.layerS, rp.segS))
}

// statsTotals sums the data-pass accounting the end-to-end jobs report.
func statsTotals(r *roundRec, m *metrics) {
	var bytes, rows, passes float64
	for _, j := range r.jobs {
		if j.res != nil {
			bytes += float64(j.res.Stats.BytesRead)
			rows += float64(j.res.Stats.RowsScanned)
			passes += float64(j.res.Stats.DataPasses)
		}
	}
	m.set("matrix.bytes_read", bytes)
	m.set("matrix.rows_scanned", rows)
	m.set("matrix.data_passes", passes)
}

// scalarOracle times verify.Exact on every stride-th candidate and
// checks it against the packed result on the same pairs.
func (rp *replay) scalarOracle(root int, src rowSource, c cands, stride int, threshold float64, full verified) (float64, error) {
	sample := c.every(stride)
	var v verified
	d, err := rp.tr.run(root, "verify.Exact(oracle)", func() (err error) {
		v, err = verifyScalar(src, sample, threshold)
		return err
	})
	if err != nil {
		return 0, err
	}
	have := map[uint64]float64{}
	for _, p := range full.pairs {
		have[pairKey(p.I, p.J)] = p.Similarity
	}
	for _, p := range v.pairs {
		if s, ok := have[pairKey(p.I, p.J)]; !ok || s != p.Similarity {
			return 0, fmt.Errorf("scalar oracle disagrees with the replayed verify on pair (%d,%d)", p.I, p.J)
		}
	}
	return ratio(d*1e9, float64(v.touches)), nil
}
