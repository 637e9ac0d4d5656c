package minhash

import (
	"errors"
	"testing"
)

type erroringSource struct {
	rows, cols, failAt int
}

var errInjected = errors.New("injected scan failure")

func (e *erroringSource) NumRows() int { return e.rows }
func (e *erroringSource) NumCols() int { return e.cols }
func (e *erroringSource) Scan(fn func(int, []int32) error) error {
	for r := 0; r < e.rows; r++ {
		if r == e.failAt {
			return errInjected
		}
		if err := fn(r, []int32{0}); err != nil {
			return err
		}
	}
	return nil
}

func TestComputePropagatesSourceError(t *testing.T) {
	src := &erroringSource{rows: 10, cols: 2, failAt: 3}
	if _, err := compute(src, 4, 1); !errors.Is(err, errInjected) {
		t.Errorf("err = %v, want injected error", err)
	}
}
