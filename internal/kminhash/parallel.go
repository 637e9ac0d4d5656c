package kminhash

import (
	"fmt"
	"runtime"
	"sync"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// ComputeParallel computes the same bottom-k sketches as Compute — the
// bottom-k of a column's row hashes is independent of visit order — by
// sharding the columns of column-major in-memory data across workers.
// Pass workers <= 0 for GOMAXPROCS. The Updates counter is not
// maintained (it is a property of the streaming pass).
func ComputeParallel(m matrix.ColumnLister, k int, seed uint64, workers int) (*Sketches, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kminhash: k must be positive, got %d", k)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cols := m.NumCols()
	s := newSketches(cols, k)
	h := hashing.NewPermHash(seed)
	var wg sync.WaitGroup
	chunk := (cols + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > cols {
			hi = cols
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for c := lo; c < hi; c++ {
				col := m.ColumnRows(c)
				s.ColSizes[c] = len(col)
				if len(col) == 0 {
					continue
				}
				heap := s.Sigs[c]
				for _, r := range col {
					v := h.Row(int(r))
					if len(heap) < k {
						heap = pushMaxHeap(heap, v)
					} else if v < heap[0] {
						replaceMaxHeapRoot(heap, v)
					}
				}
				sortSketch(heap)
				s.Sigs[c] = heap
			}
		}(lo, hi)
	}
	wg.Wait()
	return s, nil
}
