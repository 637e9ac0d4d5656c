package verify

import (
	"fmt"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
)

func BenchmarkExact(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 5000, 300, 0.02)
	var cand []pairs.Scored
	for i := int32(0); i < 300; i += 3 {
		for j := i + 1; j < 300; j += 7 {
			cand = append(cand, pairs.Scored{Pair: pairs.Make(i, j)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Exact(m.Stream(), cand, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactParallel times the sharded verifier on the issue's
// planted 2000x400 workload at several worker counts; workers=1 is the
// serial baseline through the same entry point.
func BenchmarkExactParallel(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 2000, 400, 0.05)
	var cand []pairs.Scored
	for i := int32(0); i < 400; i++ {
		for j := i + 1; j < 400; j += 5 {
			cand = append(cand, pairs.Scored{Pair: pairs.Make(i, j)})
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ExactBudgeted(m.Stream(), cand, 0.3, Budget{}, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fanout/workers=%d", workers), func(b *testing.B) {
			src := streamOnly{m.Stream()}
			for i := 0; i < b.N; i++ {
				if _, _, err := ExactBudgeted(src, cand, 0.3, Budget{}, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactPacked times the word-packed popcount kernel on the
// same planted 2000x400 workload, serial and sharded.
func BenchmarkExactPacked(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 2000, 400, 0.05)
	var cand []pairs.Scored
	for i := int32(0); i < 400; i++ {
		for j := i + 1; j < 400; j += 5 {
			cand = append(cand, pairs.Scored{Pair: pairs.Make(i, j)})
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExactPacked(m.Stream(), cand, 0.3, PackedOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fanout/workers=%d", workers), func(b *testing.B) {
			src := streamOnly{m.Stream()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExactPacked(src, cand, 0.3, PackedOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAllPairs(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 5000, 300, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllPairs(m, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// plantedGroups builds a matrix of groups × members columns in which
// every row draws events groups and sets each member of a drawn group
// with probability incl, and returns it with every within-group pair as
// the candidate list (group after group, so neighbouring candidate
// indices share columns, as a sorted candidate list does).
func plantedGroups(rng *hashing.SplitMix64, rows, groups, members, events int, incl float64) (*matrix.Matrix, []pairs.Scored) {
	data := make([][]int32, rows)
	for r := range data {
		for e := 0; e < events; e++ {
			base := int32(rng.Intn(groups) * members)
			for k := int32(0); k < int32(members); k++ {
				if rng.Float64() < incl {
					data[r] = append(data[r], base+k)
				}
			}
		}
	}
	m, err := matrix.FromRows(groups*members, data)
	if err != nil {
		panic(err)
	}
	cand := make([]pairs.Scored, 0, groups*members*(members-1)/2)
	for g := 0; g < groups; g++ {
		base := int32(g * members)
		for i := int32(0); i < int32(members); i++ {
			for j := i + 1; j < int32(members); j++ {
				cand = append(cand, pairs.Scored{Pair: pairs.Make(base+i, base+j)})
			}
		}
	}
	return m, cand
}

// BenchmarkExactBudgetedSpill times the out-of-core path on the shape
// of the benchmark's spill job: 26 000 sparse four-column groups, three
// group events per row, and a budget of a twelfth of the dense counter
// table, which the pass leaves in about 120 sorted runs.
func BenchmarkExactBudgetedSpill(b *testing.B) {
	m, cand := plantedGroups(hashing.NewSplitMix64(1), 117_000, 26_000, 4, 3, 0.9)
	budget := Budget{Bytes: 800 << 10, Dir: b.TempDir()}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = ExactBudgeted(m.Stream(), cand, 0.5, budget, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Touches), "ns/touch")
	b.ReportMetric(float64(st.SpillRuns), "runs")
}

// BenchmarkPackedSweepCluster times the packed kernel where the sweep
// is all there is: 16 clusters of 80 near-duplicate columns over
// 260 000 rows, every within-cluster pair a candidate. Each cluster is
// a component of about 16 250 rows, so its columns are bitmaps of about
// 254 words over that union (not 4 063 over every row), packed from
// column lists.
func BenchmarkPackedSweepCluster(b *testing.B) {
	m, cand := plantedGroups(hashing.NewSplitMix64(1), 260_000, 16, 80, 1, 0.7)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = ExactPacked(m.Stream(), cand, 0.5, PackedOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.PackedWords), "ns/word")
}

// BenchmarkPackedSparse times the packed kernel in the regime the paper
// is about, the shape of the benchmark's candidate-generation workload:
// 58 000 rows, 10 000 planted column pairs with two pair events a row
// (about 12 ones a column, far below T = 113), every planted pair a
// candidate. Every pair is counted by list merge.
func BenchmarkPackedSparse(b *testing.B) {
	m, cand := plantedGroups(hashing.NewSplitMix64(1), 58_000, 10_000, 2, 2, 1)
	benchPacked(b, m, cand)
}

// BenchmarkPackedDense times it on the shape of the benchmark's cluster
// verification: 260 000 rows, 64 clusters of 80 near-duplicate columns
// (about 2 800 ones a column, far above T = 507), one cluster event a
// row, every within-cluster pair a candidate. Every pair is counted by
// AND popcount, over the about 4 060 rows of its cluster's union:
// about 64 words a pair, not 4 063.
func BenchmarkPackedDense(b *testing.B) {
	m, cand := plantedGroups(hashing.NewSplitMix64(1), 260_000, 64, 80, 1, 0.7)
	benchPacked(b, m, cand)
}

func benchPacked(b *testing.B, m *matrix.Matrix, cand []pairs.Scored) {
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = Verify(m.Stream(), cand, Params{Threshold: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	if st.PackedBatches == 0 {
		b.Fatal("Auto did not choose the packed kernel")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cand)), "ns/pair")
}

// BenchmarkPackFromFile times the packed kernel where packing is all
// there is — a streamed source, few candidates, short columns: a
// 20 000 × 4 000 file at density 0.005 (20 postings a row), candidates over
// 200 or over all of its columns. The worker count only shards the
// sweep; the file is packed by one reader either way.
func BenchmarkPackFromFile(b *testing.B) {
	const cols = 4_000
	m := randomMatrix(hashing.NewSplitMix64(1), 20_000, cols, 0.005)
	dir := b.TempDir()
	for _, ext := range []string{".arows", ".carows"} {
		path := dir + "/data" + ext
		if err := matrix.SaveFile(path, m); err != nil {
			b.Fatal(err)
		}
		src, err := matrix.OpenFileSource(path)
		if err != nil {
			b.Fatal(err)
		}
		for _, wanted := range []int{200, cols} {
			// wanted/2 disjoint pairs spread evenly over the columns.
			var cand []pairs.Scored
			for c := 0; c < cols; c += 2 * cols / wanted {
				cand = append(cand, pairs.Scored{Pair: pairs.Make(int32(c), int32(c+cols/wanted))})
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/cols=%d/workers=%d", ext, wanted, workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := ExactPacked(src, cand, 0.3, PackedOptions{Workers: workers}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
