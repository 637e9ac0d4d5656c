package eval

import (
	"fmt"

	"assocmine"
)

// Fig9 reproduces the cross-algorithm comparison: for each tolerated
// false-negative rate, pick for every algorithm the parameter setting
// with minimum total running time whose measured FN rate (at the
// similarity cutoff) stays within the tolerance, then plot total time
// and false-positive counts against the tolerance.
//
// The paper's observations this reproduces: M-LSH is fastest overall,
// H-LSH is costly at tight FN budgets but competitive at loose ones,
// and the MH/K-MH false-positive curves are not monotone in the
// tolerance (the optimum trades candidate-stage work against
// pruning-stage work).

// Fig9Point is one algorithm's best setting at one FN tolerance.
type Fig9Point struct {
	Algorithm assocmine.Algorithm
	Tolerance float64
	Config    assocmine.Config
	TotalMS   float64
	FalsePos  int
	FNRate    float64
	Feasible  bool
}

// Fig9 runs the comparison at cutoff s* = 0.5.
func Fig9(w *Workloads, tolerances []float64) ([]Figure, []Fig9Point, error) {
	if len(tolerances) == 0 {
		tolerances = []float64{0.01, 0.05, 0.10, 0.20}
	}
	const cutoff = 0.5

	grids := map[assocmine.Algorithm][]assocmine.Config{
		assocmine.MinHash: {
			{Algorithm: assocmine.MinHash, Threshold: cutoff, K: 30, Delta: 0.4, Seed: 9},
			{Algorithm: assocmine.MinHash, Threshold: cutoff, K: 50, Delta: 0.3, Seed: 9},
			{Algorithm: assocmine.MinHash, Threshold: cutoff, K: 100, Delta: 0.2, Seed: 9},
			{Algorithm: assocmine.MinHash, Threshold: cutoff, K: 200, Delta: 0.2, Seed: 9},
			{Algorithm: assocmine.MinHash, Threshold: cutoff, K: 100, Delta: 0.4, Seed: 9},
		},
		assocmine.KMinHash: {
			{Algorithm: assocmine.KMinHash, Threshold: cutoff, K: 30, Delta: 0.4, Seed: 9},
			{Algorithm: assocmine.KMinHash, Threshold: cutoff, K: 50, Delta: 0.3, Seed: 9},
			{Algorithm: assocmine.KMinHash, Threshold: cutoff, K: 100, Delta: 0.2, Seed: 9},
			{Algorithm: assocmine.KMinHash, Threshold: cutoff, K: 200, Delta: 0.2, Seed: 9},
			{Algorithm: assocmine.KMinHash, Threshold: cutoff, K: 100, Delta: 0.4, Seed: 9},
		},
		assocmine.MinLSH: {
			{Algorithm: assocmine.MinLSH, Threshold: cutoff, K: 20, R: 4, L: 5, Seed: 9},
			{Algorithm: assocmine.MinLSH, Threshold: cutoff, K: 50, R: 5, L: 10, Seed: 9},
			{Algorithm: assocmine.MinLSH, Threshold: cutoff, K: 100, R: 5, L: 20, Seed: 9},
			{Algorithm: assocmine.MinLSH, Threshold: cutoff, K: 60, R: 3, L: 20, Seed: 9},
			{Algorithm: assocmine.MinLSH, Threshold: cutoff, K: 120, R: 4, L: 30, Seed: 9},
		},
		assocmine.HammingLSH: {
			{Algorithm: assocmine.HammingLSH, Threshold: cutoff, R: 6, L: 5, Seed: 9},
			{Algorithm: assocmine.HammingLSH, Threshold: cutoff, R: 8, L: 10, Seed: 9},
			{Algorithm: assocmine.HammingLSH, Threshold: cutoff, R: 8, L: 20, Seed: 9},
			{Algorithm: assocmine.HammingLSH, Threshold: cutoff, R: 12, L: 30, Seed: 9},
			{Algorithm: assocmine.HammingLSH, Threshold: cutoff, R: 16, L: 40, Seed: 9},
		},
	}
	order := []assocmine.Algorithm{
		assocmine.MinHash, assocmine.KMinHash, assocmine.HammingLSH, assocmine.MinLSH,
	}

	// Evaluate each grid point once; reuse across tolerances.
	type measured struct {
		cfg     assocmine.Config
		totalMS float64
		quality quality
	}
	results := map[assocmine.Algorithm][]measured{}
	for algo, cfgs := range grids {
		for _, cfg := range cfgs {
			run, err := execute(w.web.Data, cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("eval: fig9 %v: %w", algo, err)
			}
			q, err := scoreCandidates(w.WebTruth, run.Candidates, cutoff)
			if err != nil {
				return nil, nil, err
			}
			results[algo] = append(results[algo], measured{
				cfg:     cfg,
				totalMS: ms(run.Stats.Total()),
				quality: q,
			})
		}
	}

	var points []Fig9Point
	timeFig := Figure{
		ID:     "fig9a",
		Title:  "Total running time vs tolerated false-negative rate (cutoff 0.5)",
		XLabel: "false-negative tolerance",
		YLabel: "time (ms)",
	}
	fpFig := Figure{
		ID:     "fig9b",
		Title:  "False positives vs tolerated false-negative rate (log-scale in the paper)",
		XLabel: "false-negative tolerance",
		YLabel: "false positives (count)",
	}
	for _, algo := range order {
		var ts, fps series
		ts.Name = algo.String()
		fps.Name = algo.String()
		for _, tol := range tolerances {
			best := Fig9Point{Algorithm: algo, Tolerance: tol}
			for _, m := range results[algo] {
				if m.quality.fnRate() > tol {
					continue
				}
				if !best.Feasible || m.totalMS < best.TotalMS {
					best = Fig9Point{
						Algorithm: algo, Tolerance: tol, Config: m.cfg,
						TotalMS: m.totalMS, FalsePos: m.quality.FalsePos,
						FNRate: m.quality.fnRate(), Feasible: true,
					}
				}
			}
			points = append(points, best)
			if best.Feasible {
				ts.X = append(ts.X, tol)
				ts.Y = append(ts.Y, best.TotalMS)
				fps.X = append(fps.X, tol)
				fps.Y = append(fps.Y, float64(best.FalsePos))
			}
		}
		timeFig.Series = append(timeFig.Series, ts)
		fpFig.Series = append(fpFig.Series, fps)
	}
	timeFig.Notes = append(timeFig.Notes,
		"expected shape: M-LSH fastest; H-LSH expensive at tight tolerances; MH/K-MH slowest overall")
	fpFig.Notes = append(fpFig.Notes,
		"LSH false positives fall as more false negatives are tolerated; MH/K-MH are not monotone")
	return []Figure{timeFig, fpFig}, points, nil
}
