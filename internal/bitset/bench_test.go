package bitset

import "testing"

func BenchmarkTest(b *testing.B) {
	s := newSet(1 << 16)
	for i := 0; i < 1<<16; i += 3 {
		s.set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Test(i & (1<<16 - 1))
	}
}

func BenchmarkAndCount(b *testing.B) {
	x, y := newSet(1<<16), newSet(1<<16)
	for i := 0; i < 1<<16; i += 3 {
		x.set(i)
	}
	for i := 0; i < 1<<16; i += 5 {
		y.set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AndCountWords(x.words, y.words)
	}
}
