// Streaming: the paper's disk-resident setting end to end. A dataset
// is written to disk, then mined directly from the file — one
// sequential pass for signatures, one for verification, with only the
// O(m·K) signatures in memory — first serially, then with parallel
// workers and a verification memory budget small enough to force the
// counter table to spill sorted runs to disk (same results either
// way), and finally re-mined progressively (Section 4's online
// framework), stopping early once enough pairs have surfaced.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"assocmine"
)

func main() {
	dir, err := os.MkdirTemp("", "assocmine-streaming")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "weblog.arows")

	// Generate and persist a web-log dataset.
	web, err := assocmine.GenerateWebLog(assocmine.WebLogOptions{
		Clients: 15000, URLs: 1500, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := web.Data.Save(path); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("wrote %s: %d clients x %d URLs in %d bytes\n\n",
		filepath.Base(path), web.Data.NumRows(), web.Data.NumCols(), info.Size())

	// Mine straight from the file. Each phase is one sequential pass.
	fd, err := assocmine.OpenFileDataset(path)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fd.SimilarPairs(assocmine.Config{
		Algorithm: assocmine.KMinHash,
		Threshold: 0.7,
		K:         100,
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk-resident K-MH: %d pairs, %d file passes (%d rows scanned, %d bytes read)\n",
		len(res.Pairs), res.Stats.DataPasses, res.Stats.RowsScanned, res.Stats.BytesRead)

	// Same mine, out of core at full tilt: four workers share both file
	// passes (a single reader broadcasts row shards, so the file is
	// still read exactly once per pass), and a tiny memory budget
	// forces the verification counter table to spill sorted runs to
	// disk. Results are bit-identical to the serial run.
	ooc, err := fd.SimilarPairs(assocmine.Config{
		Algorithm:    assocmine.KMinHash,
		Threshold:    0.7,
		K:            100,
		Seed:         3,
		Workers:      4,
		MemoryBudget: 4 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out-of-core K-MH:   %d pairs, %d shards streamed, %d spill runs (%d bytes)\n",
		len(ooc.Pairs), ooc.Stats.ShardsStreamed, ooc.Stats.SpillRuns, ooc.Stats.SpillBytes)
	if len(ooc.Pairs) != len(res.Pairs) {
		log.Fatalf("out-of-core run found %d pairs, serial found %d", len(ooc.Pairs), len(res.Pairs))
	}

	// Progressive Min-LSH on the in-memory copy: results stream in band
	// by band, highest similarities first; stop after 100 pairs.
	data, err := fd.Load()
	if err != nil {
		log.Fatal(err)
	}
	const wanted = 100
	prog, err := assocmine.ProgressiveSimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.MinLSH,
		Threshold: 0.7,
		K:         100, R: 5, L: 20,
		Seed: 3,
	}, func(p assocmine.Progress) bool {
		fmt.Printf("  band %2d/%d: +%d pairs (total %d)\n",
			p.Band+1, p.Bands, len(p.Fresh), p.TotalFound)
		return p.TotalFound < wanted
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("progressive M-LSH stopped with %d verified pairs; strongest: (%d,%d) sim %.2f\n",
		len(prog.Pairs), prog.Pairs[0].I, prog.Pairs[0].J, prog.Pairs[0].Similarity)
}
