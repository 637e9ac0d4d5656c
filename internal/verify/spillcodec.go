// The spill-run codec of the budgeted verification pass. A run is a
// sorted sequence of (candidate index, either, both) partial counts,
// grouped into blocks whose fields are each Rice-coded with a per-block
// parameter. Indices within a run are strictly increasing, so they are
// coded as gap-1 deltas (the running previous index carries across
// blocks); either is at least 1 for every spilled entry (an entry
// exists only once a row touched it), so it is coded as either-1; both
// is coded as-is. Blocks are byte-aligned, framed by a uvarint entry
// count and three parameter bytes, which lets the merge cursor decode a
// block at a time with bounded state. Spill volume dominates the pass's
// IO and partial counts are small and clustered, so the blocks
// typically cut run bytes 3-4x against plain uvarint triples — the
// price Stats.SpillBytesRaw keeps quoting (uvarintLen) — for pure
// encode/decode arithmetic (no allocation per entry).
package verify

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"assocmine/internal/bitpack"
)

// spillBlockEntries bounds one compressed block: large enough that the
// 4-5 framing bytes amortise to noise, small enough that the merge
// cursor's decoded-block buffer stays a few KB.
const spillBlockEntries = 512

// uvarintLen returns the encoded size of v as a uvarint, pricing the
// plain triple encoding without materialising it.
func uvarintLen(v uint64) int64 {
	return int64((bits.Len64(v|1) + 6) / 7)
}

// countWriter counts the bytes that reach the spill file.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// runWriter appends sorted runs to a spill file, entry by entry. The
// byte count sits under the buffer, so a run's section is the file's
// growth between two endRuns.
type runWriter struct {
	file  countWriter
	bw    *bufio.Writer
	pw    *bitpack.Writer
	start int64       // offset of the run being written
	prev  int64       // last index of the run being written, -1 before the first
	raw   int64       // what uvarint triples would have cost for the run
	vals  [3][]uint64 // the pending block's index gaps, either-1 and both
}

func newRunWriter(f io.Writer) *runWriter {
	rw := &runWriter{file: countWriter{w: f}, prev: -1}
	rw.bw = bufio.NewWriterSize(&rw.file, 64<<10)
	rw.pw = bitpack.NewWriter(rw.bw)
	for i := range rw.vals {
		rw.vals[i] = make([]uint64, 0, spillBlockEntries)
	}
	return rw
}

// add appends the run's next entry to the pending block, which is
// written out when it reaches spillBlockEntries.
func (rw *runWriter) add(e spillEntry) error {
	rw.vals[0] = append(rw.vals[0], uint64(int64(e.idx)-rw.prev)-1)
	rw.prev = int64(e.idx)
	rw.vals[1] = append(rw.vals[1], uint64(e.either)-1)
	rw.vals[2] = append(rw.vals[2], uint64(e.both))
	rw.raw += uvarintLen(uint64(uint32(e.idx))) + uvarintLen(uint64(e.either)) + uvarintLen(uint64(e.both))
	if len(rw.vals[0]) == spillBlockEntries {
		return rw.flushBlock()
	}
	return nil
}

// flushBlock writes the pending entries as one Rice-coded block.
func (rw *runWriter) flushBlock() error {
	var buf [binary.MaxVarintLen32 + 3]byte
	n := binary.PutUvarint(buf[:], uint64(len(rw.vals[0])))
	var k [3]uint
	for i, vals := range rw.vals {
		k[i], _ = bitpack.BestRiceK(vals)
		buf[n+i] = byte(k[i])
	}
	if _, err := rw.bw.Write(buf[:n+3]); err != nil {
		return err
	}
	for i, vals := range rw.vals {
		for _, v := range vals {
			rw.pw.WriteRice(v, k[i])
		}
		rw.vals[i] = vals[:0]
	}
	return rw.pw.Flush() // byte-align the block
}

// endRun flushes the run to the file and returns its section and raw
// price, ready for the next run.
func (rw *runWriter) endRun() (sec runSection, raw int64, err error) {
	if len(rw.vals[0]) > 0 {
		err = rw.flushBlock()
	}
	if err == nil {
		err = rw.bw.Flush()
	}
	if err != nil {
		return sec, 0, err
	}
	sec, raw = runSection{off: rw.start, n: rw.file.n - rw.start}, rw.raw
	rw.start, rw.prev, rw.raw = rw.file.n, -1, 0
	return sec, raw, nil
}

// readSpillBlock decodes the next block into c.blk,
// advancing c.prevIdx. Returns io.EOF exactly when the run ends
// cleanly at a block boundary. The files are this process's own temp
// output, but decode still validates every field — a bug (or a
// truncated write the fault-injection suite provokes) must surface as
// an error, never as silent count corruption.
func (c *runCursor) readSpillBlock() error {
	n, err := binary.ReadUvarint(c.br)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("verify: reading spill run: %w", err)
	}
	if n == 0 || n > spillBlockEntries {
		return fmt.Errorf("verify: spill run corrupt: block of %d entries", n)
	}
	var params [3]byte
	if _, err := io.ReadFull(c.br, params[:]); err != nil {
		return fmt.Errorf("verify: reading spill run: %w", err)
	}
	for _, k := range params {
		if uint(k) > bitpack.MaxRiceK {
			return fmt.Errorf("verify: spill run corrupt: rice parameter %d", k)
		}
	}
	c.blk = c.blk[:n]
	for i := range c.blk {
		d, err := c.bits.ReadRice(uint(params[0]))
		if err != nil {
			return fmt.Errorf("verify: reading spill run: %w", err)
		}
		idx := c.prevIdx + 1 + int64(d)
		if idx >= int64(c.nCand) {
			return fmt.Errorf("verify: spill run corrupt: candidate index %d of %d", idx, c.nCand)
		}
		c.prevIdx = idx
		c.blk[i].idx = int32(idx)
	}
	for i := range c.blk {
		v, err := c.bits.ReadRice(uint(params[1]))
		if err != nil {
			return fmt.Errorf("verify: reading spill run: %w", err)
		}
		if v >= 1<<31 {
			return fmt.Errorf("verify: spill run corrupt: either count %d", v+1)
		}
		c.blk[i].either = int32(v) + 1
	}
	for i := range c.blk {
		v, err := c.bits.ReadRice(uint(params[2]))
		if err != nil {
			return fmt.Errorf("verify: reading spill run: %w", err)
		}
		if v >= 1<<31 {
			return fmt.Errorf("verify: spill run corrupt: both count %d", v)
		}
		c.blk[i].both = int32(v)
	}
	c.bits.Align() // blocks are byte-aligned
	return nil
}
