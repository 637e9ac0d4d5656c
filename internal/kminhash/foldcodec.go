package kminhash

import (
	"encoding/binary"
	"fmt"
	"io"

	"assocmine/internal/hashing"
)

// Fold-state persistence: an ingestion process snapshots its FoldState
// after each batch so a restart resumes at O(new rows) instead of
// refolding history. The KMF1 format is versioned by magic and stores
// the raw 64-bit heap arrays VERBATIM (heap order, not sorted): a
// resumed sequential fold then replays bit-identically to an
// uninterrupted one, order-dependent Updates counter included. Every
// heap's length is the invariant min(k, colSize) — each column
// occurrence either pushes or replaces — so only the column size is
// encoded and the length is derived.
//
// The fold codec never wraps the stream in its own buffered reader and
// consumes exactly its encoded bytes — several states (a sliding
// window's ring) share one stream in the ingest snapshot container, so
// read-ahead would corrupt the next blob. Pass a buffered reader for
// performance.
const foldMagic = "KMF1"

// Snapshot serialises the state: magic, then k, m, seed, rows, updates
// as 8-byte little-endian words, then per column an 8-byte column size
// followed by min(k, colSize) raw heap values in heap-array order.
func (s *FoldState) Snapshot(w io.Writer) error {
	var hdr [44]byte
	copy(hdr[:4], foldMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(s.k))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(s.m))
	binary.LittleEndian.PutUint64(hdr[20:], s.seed)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(s.rows))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(s.updates))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<15)
	flush := func(force bool) error {
		if len(buf) == 0 || (!force && len(buf) < cap(buf)-8*(s.k+1)) {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for c, heap := range s.heaps {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.colSizes[c]))
		for _, v := range heap {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		if err := flush(false); err != nil {
			return err
		}
	}
	return flush(true)
}

// ReadFoldState parses a stream written by Snapshot. What it allocates
// grows with the bytes that actually arrive, whatever the header
// claims, and every decoded heap is checked for the max-heap invariant
// so a corrupted snapshot fails loudly instead of folding garbage.
func ReadFoldState(r io.Reader) (*FoldState, error) {
	var hdr [44]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("kminhash: reading fold header: %w", err)
	}
	if string(hdr[:4]) != foldMagic {
		return nil, fmt.Errorf("kminhash: bad fold magic %q", hdr[:4])
	}
	k := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	seed := binary.LittleEndian.Uint64(hdr[20:])
	rows := binary.LittleEndian.Uint64(hdr[28:])
	updates := binary.LittleEndian.Uint64(hdr[36:])
	const (
		maxDim  = 1 << 31
		maxK    = 1 << 20
		maxRows = 1 << 40
	)
	if k == 0 || k > maxK || m > maxDim || rows > maxRows {
		return nil, fmt.Errorf("kminhash: implausible fold dimensions k=%d m=%d rows=%d", k, m, rows)
	}
	if k*m > (1 << 34) {
		return nil, fmt.Errorf("kminhash: fold state too large: %d values", k*m)
	}
	if updates > (1 << 62) {
		return nil, fmt.Errorf("kminhash: implausible update count %d", updates)
	}
	s := &FoldState{
		k:       int(k),
		m:       int(m),
		seed:    seed,
		rows:    int64(rows),
		updates: int64(updates),
		h:       hashing.NewPermHash(seed),
	}
	var buf [8]byte
	read64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	// Sizes and values are appended as their bytes arrive, into one
	// array that doubles as it fills, so a header claiming more than the
	// stream holds costs a small multiple of what was read. Once a
	// heap's values have arrived it gets as much room again, up to k, so
	// a resumed fold seldom moves a heap out of the array.
	vals := make([]uint64, 0, min(k*m, 1<<10))
	grow := func(n int) {
		if len(vals)+n > cap(vals) {
			vals = append(make([]uint64, 0, 2*(len(vals)+n)), vals...)
		}
	}
	for c := uint64(0); c < m; c++ {
		size, err := read64()
		if err != nil {
			return nil, fmt.Errorf("kminhash: column %d size: %w", c, err)
		}
		if size > rows {
			return nil, fmt.Errorf("kminhash: column %d size %d exceeds %d rows", c, size, rows)
		}
		s.colSizes = append(s.colSizes, int(size))
		heap, n := len(vals), int(min(size, k))
		for i := 0; i < n; i++ {
			v, err := read64()
			if err != nil {
				return nil, fmt.Errorf("kminhash: column %d value %d: %w", c, i, err)
			}
			if i > 0 && vals[heap+(i-1)/2] < v {
				return nil, fmt.Errorf("kminhash: column %d violates the heap invariant at value %d", c, i)
			}
			grow(1)
			vals = append(vals, v)
		}
		room := min(s.k, 2*n) - n
		grow(room)
		vals = vals[:len(vals)+room]
	}
	if s.colSizes == nil {
		s.colSizes = []int{}
	}
	s.heaps = make([][]uint64, m)
	off := 0
	for c, size := range s.colSizes {
		n := min(size, s.k)
		end := off + min(s.k, 2*n)
		s.heaps[c] = vals[off : off+n : end]
		off = end
	}
	return s, nil
}
