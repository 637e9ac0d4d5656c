package minhash

import (
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

func benchMatrix(b *testing.B, rows, cols int, density float64) *matrix.Matrix {
	b.Helper()
	rng := hashing.NewSplitMix64(1)
	mb := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				mb.Set(r, c)
			}
		}
	}
	return mb.Build()
}

func BenchmarkCompute(b *testing.B) {
	m := benchMatrix(b, 5000, 500, 0.02)
	for _, k := range []int{10, 50, 100} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compute(m.Stream(), k, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimate(b *testing.B) {
	m := benchMatrix(b, 2000, 100, 0.05)
	sig, err := Compute(m.Stream(), 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sig.Estimate(i%100, (i+1)%100)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
