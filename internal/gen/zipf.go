// Package gen provides streaming synthetic dataset sources for the
// scale benchmark tier. Unlike the in-memory generators of the root
// package (which materialise a Dataset), these sources produce rows on
// the fly from a seeded generator, so a 10M-row tier costs no memory:
// they are written straight to .arows/.carows through the standard
// row-source savers.
package gen

import (
	"fmt"
	"math/rand"
	"sort"
)

// Zipf column popularity follows s=1.1 — heavy head, long tail — the
// standard shape for market-basket item frequencies and clickstream
// URL popularity.
const zipfS = 1.1

// ZipfSource is a deterministic streaming matrix.RowSource. Scan
// reseeds its generator on every call, so repeated passes (the savers
// and the mining phases each scan at least once) deliver identical
// rows.
type ZipfSource struct {
	// Kind selects the row shape: "market" draws independent Zipf
	// items per basket; "clicks" draws a Zipf session start and walks
	// with sequential locality.
	Kind string
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// Seed drives everything; equal seeds give equal datasets.
	Seed uint64
	// MeanRowLen is the expected row length; 0 means 12. Market rows
	// are uniform on [1, 2*MeanRowLen); click sessions likewise.
	MeanRowLen int
}

// validate checks the dimensions before a scan.
func (z *ZipfSource) validate() error {
	if z.Rows < 1 || z.Cols < 2 {
		return fmt.Errorf("gen: need Rows >= 1 and Cols >= 2, got %dx%d", z.Rows, z.Cols)
	}
	switch z.Kind {
	case "market", "clicks":
	default:
		return fmt.Errorf("gen: unknown kind %q (want market or clicks)", z.Kind)
	}
	return nil
}

func (z *ZipfSource) NumRows() int { return z.Rows }
func (z *ZipfSource) NumCols() int { return z.Cols }

func (z *ZipfSource) meanLen() int {
	if z.MeanRowLen > 0 {
		return z.MeanRowLen
	}
	return 12
}

// Scan delivers every row in order. The generator is reseeded per
// pass, so the source is multi-pass safe.
func (z *ZipfSource) Scan(fn func(row int, cols []int32) error) error {
	if err := z.validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(z.Seed)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(z.Cols-1))
	mean := z.meanLen()
	buf := make([]int32, 0, 4*mean)
	for r := 0; r < z.Rows; r++ {
		length := 1 + rng.Intn(2*mean-1)
		buf = buf[:0]
		switch z.Kind {
		case "market":
			// Independent Zipf item draws per basket.
			for i := 0; i < length; i++ {
				buf = append(buf, int32(zipf.Uint64()))
			}
		case "clicks":
			// Zipf session entry plus a locality walk: mostly the next
			// page, sometimes a fresh Zipf jump.
			cur := int32(zipf.Uint64())
			buf = append(buf, cur)
			for i := 1; i < length; i++ {
				if rng.Float64() < 0.7 {
					cur = (cur + 1) % int32(z.Cols)
				} else {
					cur = int32(zipf.Uint64())
				}
				buf = append(buf, cur)
			}
		}
		// Rows are sets: sort and deduplicate the draws.
		sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
		w := 0
		for i, v := range buf {
			if i == 0 || v != buf[w-1] {
				buf[w] = v
				w++
			}
		}
		if err := fn(r, buf[:w]); err != nil {
			return err
		}
	}
	return nil
}
