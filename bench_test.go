// Benchmarks regenerating the paper's tables and figures, one bench per
// experiment, plus ablations for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// The workloads are the substitute datasets (see DESIGN.md §5); sizes
// are chosen so the full suite completes in minutes. Compare ratios
// across benchmarks, not absolute times.
package assocmine_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"assocmine"
	"assocmine/internal/apriori"
	"assocmine/internal/eval"
	"assocmine/internal/lsh"
)

// benchScale sizes the benchmark datasets.
var benchScale = eval.Scale{
	WebClients: 4000, WebURLs: 800,
	NewsDocs: 8000, NewsVocab: 1500,
	SynRows: 5000, SynCols: 500,
	Seed: 1,
}

// benchSets are the experiments' datasets at benchScale — generated as
// eval.NewWorkloads generates them — once, and shared across benchmarks.
type benchSets struct {
	Web  *assocmine.WebLogDataset
	News *assocmine.NewsDataset
	Syn  *assocmine.Dataset
}

var (
	benchOnce sync.Once
	benchW    *benchSets
	benchErr  error
)

func workloads(b *testing.B) *benchSets {
	b.Helper()
	benchOnce.Do(func() {
		sc, w := benchScale, &benchSets{}
		if w.Web, benchErr = assocmine.GenerateWebLog(assocmine.WebLogOptions{Clients: sc.WebClients, URLs: sc.WebURLs, Seed: sc.Seed}); benchErr != nil {
			return
		}
		if w.News, benchErr = assocmine.GenerateNews(assocmine.NewsOptions{Docs: sc.NewsDocs, Vocab: sc.NewsVocab, Seed: sc.Seed + 1}); benchErr != nil {
			return
		}
		w.Syn, _, benchErr = assocmine.GenerateSynthetic(assocmine.SyntheticOptions{Rows: sc.SynRows, Cols: sc.SynCols, Seed: sc.Seed + 2})
		benchW = w
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

// BenchmarkFig2FilterFunctions evaluates the analytic filter functions
// P_{r,l} and Q_{r,l,k} over the full similarity grid (Fig. 2).
func BenchmarkFig2FilterFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for s := 0.0; s <= 1; s += 0.01 {
			_ = lsh.ProbAtLeastOnce(s, 20, 20)
			_ = lsh.SampledCollisionProb(s, 20, 20, 40)
		}
	}
}

// BenchmarkFig3Histogram builds the all-pairs similarity histogram of
// the web-log data (Fig. 3) through the experiment's own entry point.
func BenchmarkFig3Histogram(b *testing.B) {
	w, err := eval.NewWorkloads(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3(w); err != nil {
			b.Fatal(err)
		}
	}
}

// The Fig. 4 running-time table: one sub-benchmark per algorithm on
// the support-pruned news data.
func BenchmarkFig4(b *testing.B) {
	w := workloads(b)
	m := w.News.Data.Matrix()
	ths := []float64{0.01}
	keep := apriori.SupportPrune(m, ths[0])
	pruned, _ := apriori.Project(m, keep)
	d := assocmine.WrapMatrix(pruned)
	const threshold = 0.5

	b.Run("Apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assocmine.SimilarPairs(d, assocmine.Config{
				Algorithm: assocmine.Apriori, Threshold: threshold, MinSupport: ths[0],
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	cfgs := map[string]assocmine.Config{
		"MH":   {Algorithm: assocmine.MinHash, Threshold: threshold, K: 100, Seed: 3},
		"KMH":  {Algorithm: assocmine.KMinHash, Threshold: threshold, K: 100, Seed: 3},
		"HLSH": {Algorithm: assocmine.HammingLSH, Threshold: threshold, R: 8, L: 10, Seed: 3},
		"MLSH": {Algorithm: assocmine.MinLSH, Threshold: threshold, K: 100, R: 5, L: 20, Seed: 3},
	}
	for name, cfg := range cfgs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assocmine.SimilarPairs(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5MH sweeps MH over k on the web-log data (Fig. 5b's
// linear growth in k).
func BenchmarkFig5MH(b *testing.B) {
	w := workloads(b)
	for _, k := range []int{20, 50, 100, 200} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assocmine.SimilarPairs(w.Web.Data, assocmine.Config{
					Algorithm: assocmine.MinHash, Threshold: 0.5, K: k, Seed: 9,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6KMH sweeps K-MH over k (Fig. 6b's sublinear growth on
// sparse data).
func BenchmarkFig6KMH(b *testing.B) {
	w := workloads(b)
	for _, k := range []int{20, 50, 100, 200} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assocmine.SimilarPairs(w.Web.Data, assocmine.Config{
					Algorithm: assocmine.KMinHash, Threshold: 0.5, K: k, Seed: 9,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7HLSH sweeps H-LSH over r (Fig. 7c: time falls as r
// rises because fewer candidates reach verification).
func BenchmarkFig7HLSH(b *testing.B) {
	w := workloads(b)
	for _, r := range []int{4, 8, 16, 24} {
		b.Run(benchName("r", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assocmine.SimilarPairs(w.Web.Data, assocmine.Config{
					Algorithm: assocmine.HammingLSH, Threshold: 0.5, R: r, L: 10, Seed: 9,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8MLSH sweeps M-LSH over l (Fig. 8b: time grows with l).
func BenchmarkFig8MLSH(b *testing.B) {
	w := workloads(b)
	for _, l := range []int{2, 5, 10, 20} {
		b.Run(benchName("l", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assocmine.SimilarPairs(w.Web.Data, assocmine.Config{
					Algorithm: assocmine.MinLSH, Threshold: 0.5, K: 5 * l, R: 5, L: l, Seed: 9,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Comparison runs the four schemes end-to-end at their
// mid-grid settings (the Fig. 9 cross-algorithm comparison).
func BenchmarkFig9Comparison(b *testing.B) {
	w := workloads(b)
	cfgs := map[string]assocmine.Config{
		"MH":   {Algorithm: assocmine.MinHash, Threshold: 0.5, K: 100, Seed: 9},
		"KMH":  {Algorithm: assocmine.KMinHash, Threshold: 0.5, K: 100, Seed: 9},
		"HLSH": {Algorithm: assocmine.HammingLSH, Threshold: 0.5, R: 8, L: 10, Seed: 9},
		"MLSH": {Algorithm: assocmine.MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 9},
	}
	for name, cfg := range cfgs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assocmine.SimilarPairs(w.Web.Data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSyntheticRecall runs the Section 5 synthetic-data workload
// end-to-end with M-LSH.
func BenchmarkSyntheticRecall(b *testing.B) {
	w := workloads(b)
	for i := 0; i < b.N; i++ {
		if _, err := assocmine.SimilarPairs(w.Syn, assocmine.Config{
			Algorithm: assocmine.MinLSH, Threshold: 0.45, K: 150, R: 3, L: 50, Seed: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRules measures Section 6 rule mining on the news corpus.
func BenchmarkRules(b *testing.B) {
	w := workloads(b)
	for i := 0; i < b.N; i++ {
		if _, err := assocmine.SimilarPairs(w.News.Data, assocmine.Config{
			Algorithm: assocmine.Rules, Threshold: 0.8, K: 100, Seed: 23,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4; the two over the phase-2 generators and
// their oracles are internal/candidate's) ---

// BenchmarkAblationBottomK compares the bounded-max-heap bottom-k
// sketch against recomputing by sorting all hash values per column.
func BenchmarkAblationBottomK(b *testing.B) {
	w := workloads(b)
	m := w.Web.Data.Matrix()
	b.Run("Heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assocmine.ComputeSketches(w.Web.Data, 50, 9, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SortAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortAllBottomK(m, 50, 9)
		}
	})
}

// BenchmarkSignatureComputation isolates phase 1 for MH vs K-MH at
// equal k — the motivation for K-MH (Section 3.2: one hash per row
// instead of k).
func BenchmarkSignatureComputation(b *testing.B) {
	w := workloads(b)
	b.Run("MH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assocmine.ComputeSignatures(w.Web.Data, 100, 9, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KMH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assocmine.ComputeSketches(w.Web.Data, 100, 9, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWithSignaturesContext times a precomputed-sketch query — the
// shape of every assocserve request — with and without Config.Context,
// reporting the verify phase on its own. The packed verify packs
// straight from the in-memory column lists either way, so the two must
// stay within noise of each other; when the context wrapper hid the
// column lists the Context run row-scanned the whole dataset per query
// and its verify phase was ~10x slower.
func BenchmarkWithSignaturesContext(b *testing.B) {
	d, _, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{
		Rows: 20000, Cols: 4000, MinDensity: 0.001, MaxDensity: 0.003, PairsPerRange: 10, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	sig, err := assocmine.ComputeSignatures(d, 100, 7, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{{"context=nil", nil}, {"context=background", context.Background()}} {
		b.Run(bc.name, func(b *testing.B) {
			var verify time.Duration
			for i := 0; i < b.N; i++ {
				res, err := assocmine.SimilarPairsWithSignatures(d, sig, assocmine.Config{
					Algorithm: assocmine.MinHash, Threshold: 0.7, Context: bc.ctx,
				})
				if err != nil {
					b.Fatal(err)
				}
				verify += res.Stats.VerifyTime
			}
			b.ReportMetric(float64(verify.Nanoseconds())/float64(b.N), "verify-ns/op")
		})
	}
}

func benchName(k string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return k + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return k + "=" + string(buf[i:])
}

// BenchmarkResidentQueries is the committed before/after of the
// resident service's query kernels at its benchmark's shape: a §5-style
// 12 000 × 400 set, k = 200 signatures and k = 256 sketches computed
// once, one worker, each query as assocserve issues it. A sub-benchmark
// runs warm — the sketch has answered the query before — and as
// first-query, on sketch objects nothing has queried yet (computed
// outside the timer), so the cost of what the first query builds to be
// kept (the phase-2 index, the band buckets, §6's pair table) shows next
// to what later queries save. toppairs/n=1 ends at its first step and
// n=25 walks the ladder to the floor: the search must not make the
// first pay for the second. `make bench-resident` runs these cells from
// a prebuilt binary.
func BenchmarkResidentQueries(b *testing.B) {
	d, _, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{Rows: 12000, Cols: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	type sketches struct {
		sig *assocmine.Signatures
		sk  *assocmine.Sketches
	}
	compute := func(b *testing.B) (s sketches) {
		var err error
		if s.sig, err = assocmine.ComputeSignatures(d, 200, 1, 1); err != nil {
			b.Fatal(err)
		}
		if s.sk, err = assocmine.ComputeSketches(d, 256, 1, 1); err != nil {
			b.Fatal(err)
		}
		return s
	}
	cfg := assocmine.Config{Seed: 1, Workers: 1, Context: context.Background()}
	at := func(threshold float64) assocmine.Config { c := cfg; c.Threshold = threshold; return c }
	for _, q := range []struct {
		name string
		run  func(s sketches, i int) error
	}{
		{"pairs-kmh@0.4", func(s sketches, _ int) error {
			_, err := assocmine.SimilarPairsWithSketches(d, s.sk, at(0.4))
			return err
		}},
		{"pairs-mlsh@0.8", func(s sketches, _ int) error {
			c := at(0.8)
			c.Algorithm, c.R, c.L = assocmine.MinLSH, 5, 40
			_, err := assocmine.SimilarPairsWithSignatures(d, s.sig, c)
			return err
		}},
		{"topk/floor=0.3", func(s sketches, i int) error {
			_, err := assocmine.TopColumnsWith(d, s.sk, i%d.NumCols(), 10, at(0.9), 0.3)
			return err
		}},
		{"toppairs/n=1", func(s sketches, _ int) error {
			_, err := assocmine.TopPairsWith(d, s.sk, 1, at(0.9), 0.05)
			return err
		}},
		{"toppairs/n=25", func(s sketches, _ int) error {
			_, err := assocmine.TopPairsWith(d, s.sk, 25, at(0.9), 0.05)
			return err
		}},
		{"rules@0.6", func(s sketches, _ int) error {
			_, err := assocmine.SimilarPairsWith(d, s.sig, assocmine.Config{
				Algorithm: assocmine.Rules, Threshold: 0.6, Seed: 1, Context: context.Background(),
			})
			return err
		}},
	} {
		b.Run(q.name, func(b *testing.B) {
			s := compute(b)
			if err := q.run(s, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.run(s, i); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/first-query", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := compute(b)
				b.StartTimer()
				if err := q.run(s, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
