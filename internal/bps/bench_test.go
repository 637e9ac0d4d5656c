package bps

import (
	"testing"

	"assocmine/internal/gen"
	"assocmine/internal/matrix"
)

// BenchmarkBPSSampleWide is the sampler at the width that matters: 58k
// market rows over 40k columns, about 5 M in-row pair draws landing on
// a few million distinct pairs.
func BenchmarkBPSSampleWide(b *testing.B) {
	m, err := matrix.Collect(&gen.ZipfSource{Kind: "market", Rows: 58_000, Cols: 40_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := m.Stream()
	sup, err := Supports(src)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Threshold: 0.5, Delta: 0.2, Budget: 32, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Sample(src, sup, opt); err != nil {
			b.Fatal(err)
		}
	}
}
