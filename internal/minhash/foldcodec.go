package minhash

import (
	"encoding/binary"
	"fmt"
	"io"

	"assocmine/internal/hashing"
)

// Fold-state persistence: an ingestion process snapshots its FoldState
// after each batch so a restart resumes at O(new rows) instead of
// refolding history. The AMF1 format is versioned by magic and stores
// the raw 64-bit minima verbatim (column-major, the state's own
// layout), so decode(encode(s)) == s bit for bit and a resumed fold is
// indistinguishable from an uninterrupted one.
//
// The fold codec never wraps the stream in its own buffered reader and
// consumes exactly its encoded bytes — several states (a sliding
// window's ring) share one stream in the ingest snapshot container, so
// read-ahead would corrupt the next blob. Pass a buffered reader for
// performance.
const foldMagic = "AMF1"

// Snapshot serialises the state: magic, then k, m, seed, rows as 8-byte
// little-endian words, then k·m raw minima column-major.
func (s *FoldState) Snapshot(w io.Writer) error {
	var hdr [36]byte
	copy(hdr[:4], foldMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(s.k))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(s.m))
	binary.LittleEndian.PutUint64(hdr[20:], s.seed)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(s.rows))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<15)
	for _, v := range s.work {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadFoldState parses a stream written by Snapshot. The value array
// grows with the bytes that actually arrive, whatever the header
// claims, and the hash family is only derived once the full payload
// has been read.
func ReadFoldState(r io.Reader) (*FoldState, error) {
	var hdr [36]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("minhash: reading fold header: %w", err)
	}
	if string(hdr[:4]) != foldMagic {
		return nil, fmt.Errorf("minhash: bad fold magic %q", hdr[:4])
	}
	k := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	seed := binary.LittleEndian.Uint64(hdr[20:])
	rows := binary.LittleEndian.Uint64(hdr[28:])
	const (
		maxDim  = 1 << 31
		maxK    = 1 << 20 // rebuilding the hash family costs O(k)
		maxRows = 1 << 40
	)
	if k == 0 || k > maxK || m > maxDim || rows > maxRows {
		return nil, fmt.Errorf("minhash: implausible fold dimensions k=%d m=%d rows=%d", k, m, rows)
	}
	total := k * m
	if total > (1 << 34) {
		return nil, fmt.Errorf("minhash: fold state too large: %d values", total)
	}
	// A reader that knows how many bytes it holds (a bytes.Reader, as
	// dist decodes a shipped state) vouches for the whole array up front.
	// Otherwise the array doubles as values arrive, up to the declared
	// total: a header claiming more than the stream holds costs at most
	// twice what was read.
	want := min(total, 1<<10)
	if l, ok := r.(interface{ Len() int }); ok && uint64(l.Len()) >= 8*total {
		want = total
	}
	work := make([]uint64, 0, want)
	var buf [8]byte
	for read := uint64(0); read < total; read++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("minhash: reading fold value %d: %w", read, err)
		}
		if len(work) == cap(work) {
			work = append(make([]uint64, 0, min(total, 2*read)), work...)
		}
		work = append(work, binary.LittleEndian.Uint64(buf[:]))
	}
	s := &FoldState{k: int(k), m: int(m), seed: seed, rows: int64(rows), work: work}
	s.rebuildCeilings()
	// Only a row with columns reaches the hash family, so a state
	// without columns, whose bytes are its header alone, goes without.
	if m > 0 {
		s.hs, s.rowVals = hashing.NewPermHashes(seed, int(k)), make([]uint64, k)
	}
	return s, nil
}
