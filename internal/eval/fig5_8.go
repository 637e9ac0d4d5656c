package eval

import (
	"fmt"

	"assocmine"
)

// The Figs. 5–8 drivers sweep each algorithm's parameters on the
// web-log workload, producing the paper's four-panel layout per
// algorithm: S-curves as the primary knob varies, total running time
// against that knob, S-curves as the secondary knob varies, and time
// against the secondary knob.

// sweepResult is one parameter point of a sweep.
type sweepResult struct {
	label   string
	x       float64
	curve   sCurve
	totalMS float64
}

func sweep(w *Workloads, configs []assocmine.Config, labels []string, xs []float64) ([]sweepResult, error) {
	out := make([]sweepResult, 0, len(configs))
	edges := defaultEdges()
	for i, cfg := range configs {
		run, err := execute(w.web.Data, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: sweep %s: %w", labels[i], err)
		}
		out = append(out, sweepResult{
			label:   labels[i],
			x:       xs[i],
			curve:   computeSCurve(w.WebTruth, run.Candidates, edges),
			totalMS: ms(run.Stats.Total()),
		})
	}
	return out, nil
}

func fourPanel(id, algo, knob1, knob2 string, sweep1, sweep2 []sweepResult) []Figure {
	a := Figure{
		ID:     id + "a",
		Title:  fmt.Sprintf("%s quality as %s varies", algo, knob1),
		XLabel: "similarity", YLabel: "found/actual ratio",
	}
	for _, r := range sweep1 {
		a.Series = append(a.Series, scurveSeries(r.label, r.curve))
	}
	b := Figure{
		ID:     id + "b",
		Title:  fmt.Sprintf("%s total running time vs %s", algo, knob1),
		XLabel: knob1, YLabel: "time (ms)",
	}
	var bs series
	bs.Name = "total time"
	for _, r := range sweep1 {
		bs.X = append(bs.X, r.x)
		bs.Y = append(bs.Y, r.totalMS)
	}
	b.Series = []series{bs}

	c := Figure{
		ID:     id + "c",
		Title:  fmt.Sprintf("%s quality as %s varies", algo, knob2),
		XLabel: "similarity", YLabel: "found/actual ratio",
	}
	for _, r := range sweep2 {
		c.Series = append(c.Series, scurveSeries(r.label, r.curve))
	}
	d := Figure{
		ID:     id + "d",
		Title:  fmt.Sprintf("%s total running time vs %s", algo, knob2),
		XLabel: knob2, YLabel: "time (ms)",
	}
	var ds series
	ds.Name = "total time"
	for _, r := range sweep2 {
		ds.X = append(ds.X, r.x)
		ds.Y = append(ds.Y, r.totalMS)
	}
	d.Series = []series{ds}
	return []Figure{a, b, c, d}
}

// Fig5 sweeps the MH algorithm over k (signature size) and s* (cutoff).
func Fig5(w *Workloads) ([]Figure, error) {
	ks := []int{20, 50, 100, 200}
	var cfgs []assocmine.Config
	var labels []string
	var xs []float64
	for _, k := range ks {
		cfgs = append(cfgs, assocmine.Config{Algorithm: assocmine.MinHash, Threshold: 0.5, K: k, Seed: 9})
		labels = append(labels, fmt.Sprintf("k=%d", k))
		xs = append(xs, float64(k))
	}
	s1, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	cuts := []float64{0.3, 0.5, 0.7, 0.9}
	cfgs, labels, xs = nil, nil, nil
	for _, s := range cuts {
		cfgs = append(cfgs, assocmine.Config{Algorithm: assocmine.MinHash, Threshold: s, K: 100, Seed: 9})
		labels = append(labels, fmt.Sprintf("s*=%.1f", s))
		xs = append(xs, s)
	}
	s2, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	figs := fourPanel("fig5", "MH", "k", "s*", s1, s2)
	figs[1].Notes = append(figs[1].Notes, "MH signature time grows linearly with k (Fig. 5b)")
	return figs, nil
}

// Fig6 sweeps K-MH over k and s*; the paper highlights the sublinear
// growth of running time in k on sparse data (Fig. 6b).
func Fig6(w *Workloads) ([]Figure, error) {
	ks := []int{20, 50, 100, 200}
	var cfgs []assocmine.Config
	var labels []string
	var xs []float64
	for _, k := range ks {
		cfgs = append(cfgs, assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: 0.5, K: k, Seed: 9})
		labels = append(labels, fmt.Sprintf("k=%d", k))
		xs = append(xs, float64(k))
	}
	s1, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	cuts := []float64{0.3, 0.5, 0.7, 0.9}
	cfgs, labels, xs = nil, nil, nil
	for _, s := range cuts {
		cfgs = append(cfgs, assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: s, K: 100, Seed: 9})
		labels = append(labels, fmt.Sprintf("s*=%.1f", s))
		xs = append(xs, s)
	}
	s2, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	figs := fourPanel("fig6", "K-MH", "k", "s*", s1, s2)
	figs[1].Notes = append(figs[1].Notes,
		"K-MH time grows sublinearly in k: sparse columns cap their signatures at |C_i| values (Fig. 6b)")
	return figs, nil
}

// Fig7 sweeps H-LSH over r (bits per run) and l (runs per level).
func Fig7(w *Workloads) ([]Figure, error) {
	rs := []int{4, 8, 16, 24}
	var cfgs []assocmine.Config
	var labels []string
	var xs []float64
	for _, r := range rs {
		cfgs = append(cfgs, assocmine.Config{Algorithm: assocmine.HammingLSH, Threshold: 0.5, R: r, L: 10, Seed: 9})
		labels = append(labels, fmt.Sprintf("r=%d", r))
		xs = append(xs, float64(r))
	}
	s1, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	ls := []int{2, 5, 10, 20}
	cfgs, labels, xs = nil, nil, nil
	for _, l := range ls {
		cfgs = append(cfgs, assocmine.Config{Algorithm: assocmine.HammingLSH, Threshold: 0.5, R: 8, L: l, Seed: 9})
		labels = append(labels, fmt.Sprintf("l=%d", l))
		xs = append(xs, float64(l))
	}
	s2, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	figs := fourPanel("fig7", "H-LSH", "r", "l", s1, s2)
	figs[3].Notes = append(figs[3].Notes, "H-LSH time rises with l (more runs, more candidates to verify)")
	figs[1].Notes = append(figs[1].Notes, "H-LSH time falls as r rises: fewer candidates dominate the cost (Fig. 7c)")
	return figs, nil
}

// Fig8 sweeps M-LSH over r (band size) and l (band count).
func Fig8(w *Workloads) ([]Figure, error) {
	rs := []int{2, 5, 10, 15}
	var cfgs []assocmine.Config
	var labels []string
	var xs []float64
	for _, r := range rs {
		cfgs = append(cfgs, assocmine.Config{
			Algorithm: assocmine.MinLSH, Threshold: 0.5, K: r * 10, R: r, L: 10, Seed: 9,
		})
		labels = append(labels, fmt.Sprintf("r=%d", r))
		xs = append(xs, float64(r))
	}
	s1, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	ls := []int{2, 5, 10, 20}
	cfgs, labels, xs = nil, nil, nil
	for _, l := range ls {
		cfgs = append(cfgs, assocmine.Config{
			Algorithm: assocmine.MinLSH, Threshold: 0.5, K: 5 * l, R: 5, L: l, Seed: 9,
		})
		labels = append(labels, fmt.Sprintf("l=%d", l))
		xs = append(xs, float64(l))
	}
	s2, err := sweep(w, cfgs, labels, xs)
	if err != nil {
		return nil, err
	}
	figs := fourPanel("fig8", "M-LSH", "r", "l", s1, s2)
	figs[1].Notes = append(figs[1].Notes,
		"M-LSH signature extraction dominates and grows linearly with k = r*l (Fig. 8c in the paper)")
	return figs, nil
}
