package main

import (
	"math/bits"
	"math/rand"
	"slices"
)

// The input generators belong to the benchmark, not to the program: a
// later change to internal/gen must not move a workload. Each one is a
// row source (NumRows/NumCols/Scan) that reseeds per pass, keeps its own
// record of what it planted, and digests the rows it emitted so the
// smoke test can pin every workload's input to a committed golden.

// zipfS is the column-popularity exponent of the market rows — the
// heavy-head, long-tail shape of basket and clickstream data.
const zipfS = 1.1

// planted records, per reserved column, which events set it, so the
// benchmark can count exact similarities without any system code. A
// planted column receives no other entries.
type planted struct {
	base  int32      // planted columns are [base, base+len(cols))
	group []int32    // group of each planted column
	cols  [][]uint64 // one bit per event of the column's group (market) or per row (synthetic)
}

func (p *planted) reset(base int32, group []int32) {
	p.base, p.group = base, group
	p.cols = make([][]uint64, len(group))
}

func (p *planted) set(col int32, ev int) {
	b := p.cols[col-p.base]
	for len(b) <= ev>>6 {
		b = append(b, 0)
	}
	b[ev>>6] |= 1 << (ev & 63)
	p.cols[col-p.base] = b
}

func pairKey(i, j int) uint64 { return uint64(i)<<32 | uint64(j) }

// sims returns the exact Jaccard similarity of every within-group pair
// over the first nbits events (nbits <= 0: all of them), keyed by
// pairKey(i, j) with i < j.
func (p *planted) sims(nbits int) map[uint64]float64 {
	out := make(map[uint64]float64)
	for a := range p.cols {
		for b := a + 1; b < len(p.cols) && p.group[b] == p.group[a]; b++ {
			inter, union := jaccardCounts(p.cols[a], p.cols[b], nbits)
			if union > 0 {
				out[pairKey(int(p.base)+a, int(p.base)+b)] = float64(inter) / float64(union)
			}
		}
	}
	return out
}

func jaccardCounts(a, b []uint64, nbits int) (inter, union int) {
	n := max(len(a), len(b))
	for w := 0; w < n; w++ {
		var x, y uint64
		if w < len(a) {
			x = a[w]
		}
		if w < len(b) {
			y = b[w]
		}
		if nbits > 0 {
			if w<<6 >= nbits {
				break
			}
			if rem := nbits - w<<6; rem < 64 {
				mask := uint64(1)<<rem - 1
				x, y = x&mask, y&mask
			}
		}
		inter += bits.OnesCount64(x & y)
		union += bits.OnesCount64(x | y)
	}
	return inter, union
}

// rowDigest folds emitted rows into an FNV-1a style digest.
type rowDigest uint64

func (d *rowDigest) add(cols []int32) {
	h := uint64(*d)
	if h == 0 {
		h = 14695981039346656037
	}
	h = (h ^ uint64(len(cols))) * 1099511628211
	for _, c := range cols {
		h = (h ^ uint64(c)) * 1099511628211
	}
	*d = rowDigest(h)
}

// plantGroup is one planted structure on reserved columns.
type plantGroup struct {
	members int
	// incl is, for a pair (members == 2), the probability an event sets
	// both columns — which is the pair's expected Jaccard similarity,
	// since every event sets at least one; for a cluster it is the
	// probability each member joins an event.
	incl float64
}

// marketGen streams Zipf(1.1) market baskets over zipfCols columns and
// adds eventsPerRow planted events per row on the reserved columns that
// follow: the same shape as the repo's gen.ZipfSource "market" kind,
// plus ground truth.
type marketGen struct {
	rows, zipfCols, meanLen int
	eventsPerRow            int
	groups                  []plantGroup
	seed                    uint64

	// filled by the latest Scan
	planted
	digest    rowDigest
	entries   int64
	pairDraws int64 // Σ b(b-1)/2 over row lengths b: what a pair sampler inspects
}

func (g *marketGen) NumRows() int { return g.rows }

func (g *marketGen) NumCols() int {
	n := g.zipfCols
	for _, gr := range g.groups {
		n += gr.members
	}
	return n
}

func (g *marketGen) Scan(fn func(row int, cols []int32) error) error {
	rng := rand.New(rand.NewSource(int64(g.seed)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(g.zipfCols-1))
	first := make([]int32, len(g.groups))
	var group []int32
	next := int32(g.zipfCols)
	for i, gr := range g.groups {
		first[i] = next
		for m := 0; m < gr.members; m++ {
			group = append(group, int32(i))
		}
		next += int32(gr.members)
	}
	g.planted.reset(int32(g.zipfCols), group)
	g.digest, g.entries, g.pairDraws = 0, 0, 0
	events := make([]int, len(g.groups))
	row := make([]int32, 0, 4*g.meanLen)
	chosen := make([]int, 0, g.eventsPerRow)
	for r := 0; r < g.rows; r++ {
		row = row[:0]
		for n := 1 + rng.Intn(2*g.meanLen-1); n > 0; n-- {
			row = append(row, int32(zipf.Uint64()))
		}
		chosen = chosen[:0]
		for e := 0; e < g.eventsPerRow; e++ {
			gi := rng.Intn(len(g.groups))
			for slices.Contains(chosen, gi) { // one event per row and group, so an event index is a row
				gi = rng.Intn(len(g.groups))
			}
			chosen = append(chosen, gi)
			ev := events[gi]
			events[gi]++
			gr := g.groups[gi]
			if gr.members == 2 {
				u := rng.Float64()
				if u < (1+gr.incl)/2 { // both, or the first alone
					row = append(row, first[gi])
					g.planted.set(first[gi], ev)
				}
				if u < gr.incl || u >= (1+gr.incl)/2 { // both, or the second alone
					row = append(row, first[gi]+1)
					g.planted.set(first[gi]+1, ev)
				}
				continue
			}
			for m := 0; m < gr.members; m++ {
				if rng.Float64() < gr.incl {
					c := first[gi] + int32(m)
					row = append(row, c)
					g.planted.set(c, ev)
				}
			}
		}
		slices.Sort(row)
		row = slices.Compact(row)
		g.digest.add(row)
		g.entries += int64(len(row))
		g.pairDraws += int64(len(row)) * int64(len(row)-1) / 2
		if err := fn(r, row); err != nil {
			return err
		}
	}
	return nil
}

// spread returns n similarity targets evenly spaced over [lo, hi].
func spread(n int, lo, hi float64) []plantGroup {
	out := make([]plantGroup, n)
	for i := range out {
		out[i] = plantGroup{members: 2, incl: lo + (hi-lo)*float64(i)/float64(max(n-1, 1))}
	}
	return out
}

// synthGen streams the paper's Section 5 synthetic shape (the same as
// assocmine.GenerateSynthetic): independent Bernoulli columns with
// densities in [1 %, 5 %], the first 2·len(targets) of them planted as
// similar pairs (2t, 2t+1). Rows are drawn in order from one stream, so
// the first n rows are the same whatever rows is — the refresh file is
// the served file plus a tail.
type synthGen struct {
	rows, cols int
	targets    []float64
	seed       uint64

	planted
	digest rowDigest
}

func (g *synthGen) NumRows() int { return g.rows }
func (g *synthGen) NumCols() int { return g.cols }

func (g *synthGen) Scan(fn func(row int, cols []int32) error) error {
	params := rand.New(rand.NewSource(int64(g.seed) ^ 0x5eed))
	density := make([]float64, g.cols)
	for c := range density {
		density[c] = 0.01 + 0.04*params.Float64()
	}
	group := make([]int32, 2*len(g.targets))
	for c := range group {
		group[c] = int32(c / 2)
	}
	g.planted.reset(0, group)
	g.digest = 0
	rng := rand.New(rand.NewSource(int64(g.seed)))
	row := make([]int32, 0, g.cols/8)
	for r := 0; r < g.rows; r++ {
		row = row[:0]
		for t, s := range g.targets {
			d := density[2*t]
			pBoth, pOnly := 2*d*s/(1+s), d*(1-s)/(1+s)
			u := rng.Float64()
			if u < pBoth+pOnly {
				row = append(row, int32(2*t))
				g.planted.set(int32(2*t), r)
			}
			if u < pBoth || (u >= pBoth+pOnly && u < pBoth+2*pOnly) {
				row = append(row, int32(2*t+1))
				g.planted.set(int32(2*t+1), r)
			}
		}
		for c := 2 * len(g.targets); c < g.cols; c++ {
			if rng.Float64() < density[c] {
				row = append(row, int32(c))
			}
		}
		g.digest.add(row)
		if err := fn(r, row); err != nil {
			return err
		}
	}
	return nil
}
