// Package radix is the grouping primitive of the phase-2 generators: a
// stable least-significant-digit radix sort over 64-bit keys, bare or
// carrying an int32 payload (a column index) in a parallel slice.
// Row-Sorting, Hash-Count, M-LSH banding and the BPS sampler all group
// columns (or pair keys) by an equal 64-bit value; sorting puts equal
// keys in one run, and stability keeps a run in insertion order
// (ascending column index for every caller).
//
// Digits are 8 bits. One pass over the input builds all eight
// histograms; a digit on which every key agrees moves nothing and is
// skipped, so dense small keys (pair keys over a few thousand columns)
// cost half the passes of uniform hashes. The two sorts are the same
// loop written out per payload: routing the key through a type
// parameter costs an indirect call per element per pass (+48 % on 40k
// records). Keys and payloads travel in parallel slices rather than as
// records: 12 bytes an element instead of a padded 16, at the same
// speed, and the sorted payload slice is the caller's group listing as
// it stands.
package radix

// histograms are the eight per-digit counters of one sort.
type histograms [8][256]int

func (h *histograms) add(k uint64) {
	for d := range h {
		h[d][byte(k>>(8*d))]++
	}
}

// offsets turns digit d's counts into bucket start offsets. It reports
// false, leaving the counts alone, when all n keys share the digit of
// sample: that pass would be the identity.
func (h *histograms) offsets(d int, sample uint64, n int) bool {
	c := &h[d]
	if c[byte(sample>>(8*d))] == n {
		return false
	}
	sum := 0
	for b, cnt := range c {
		c[b], sum = sum, sum+cnt
	}
	return true
}

// SortKeys sorts keys ascending in place. scratch must be at least as
// long as keys; its contents are overwritten.
func SortKeys(keys, scratch []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var h histograms
	for _, k := range keys {
		h.add(k)
	}
	src, dst := keys, scratch[:n]
	for d := range h {
		if !h.offsets(d, src[0], n) {
			continue
		}
		c := &h[d]
		for _, k := range src {
			b := byte(k >> (8 * d))
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// SortByKey sorts keys ascending in place and applies the same
// permutation to vals, equal keys keeping their input order. vals must
// be as long as keys, the scratch slices at least as long; their
// contents are overwritten.
func SortByKey(keys []uint64, vals []int32, keyScratch []uint64, valScratch []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	var h histograms
	for _, k := range keys {
		h.add(k)
	}
	srcK, dstK := keys, keyScratch[:n]
	srcV, dstV := vals[:n], valScratch[:n]
	for d := range h {
		if !h.offsets(d, srcK[0], n) {
			continue
		}
		c := &h[d]
		for i, k := range srcK {
			b := byte(k >> (8 * d))
			at := c[b]
			dstK[at], dstV[at] = k, srcV[i]
			c[b] = at + 1
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
