package assocmine

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzLoadIngest feeds arbitrary bytes to LoadIngest, the reader of the
// one persisted sketch format (the AIN1 container around AMF1/KMF1
// fold states), which the resident service reads from disk at startup.
// Any input must load or error — never panic, and never allocate out of
// proportion to its length — and whatever loads must finish to a sketch
// and fold one more batch.
func FuzzLoadIngest(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden_*.ain1"))
	if err != nil || len(goldens) != 4 {
		f.Fatalf("want the 4 committed AIN1 goldens, found %v (%v)", goldens, err)
	}
	for _, p := range goldens {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(ingestMagic))
	// Four live windows of zero-column MH states at the largest k: each
	// state is its header alone, so nothing k-sized may be built for it.
	snap := []byte(ingestMagic)
	for _, v := range []uint64{uint64(MinHash), maxIngestK, 0, 1, 4, 0, 4} {
		snap = binary.LittleEndian.AppendUint64(snap, v)
	}
	for w := 0; w < 4; w++ {
		snap = binary.LittleEndian.AppendUint64(snap, 0)
		snap = append(snap, "AMF1"...)
		for _, v := range []uint64{maxIngestK, 0, 1, 0} {
			snap = binary.LittleEndian.AppendUint64(snap, v)
		}
	}
	f.Add(snap)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.ain1")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in, err := LoadIngest(path)
		runtime.ReadMemStats(&after)
		// The file handle, its read buffer and an error message are the
		// fixed cost; everything else must be backed by bytes read.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); alloc > bound {
			t.Fatalf("loading %d bytes allocated %d, bound %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		// A query allocates one cols·k fold state to merge the live
		// windows into, as a fresh NewIngest of those dimensions would;
		// a header may legally claim huge dimensions over no rows, so
		// past this size the header checks are the whole contract.
		if int64(in.NumCols())*int64(in.K()) > 1<<20 {
			return
		}
		query := func() error {
			if in.Algorithm() == KMinHash {
				_, err := in.Sketches()
				return err
			}
			_, err := in.Signatures()
			return err
		}
		if err := query(); err != nil {
			t.Fatalf("loaded ingest cannot finish a sketch: %v", err)
		}
		var batch [][]int32
		if in.NumCols() > 0 {
			batch = [][]int32{{0}, {int32(in.NumCols() - 1)}, {}}
		}
		if err := in.AppendRows(batch, 1); err != nil {
			t.Fatalf("loaded ingest rejects a batch: %v", err)
		}
		if err := query(); err != nil {
			t.Fatalf("ingest cannot finish a sketch after an append: %v", err)
		}
	})
}
