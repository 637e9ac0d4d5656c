// Command datagen generates the paper's experimental datasets to disk
// in the assocmine dataset formats (.arows row binary, .carows
// compressed rows, text otherwise).
//
// Usage:
//
//	datagen -kind synthetic -rows 10000 -cols 1000 -out syn.arows
//	datagen -kind weblog -rows 20000 -cols 3000 -out web.arows
//	datagen -kind news -rows 30000 -cols 6000 -out news.arows -words words.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"assocmine"
	"assocmine/internal/gen"
	"assocmine/internal/matrix"
)

func main() {
	var (
		kind    = flag.String("kind", "synthetic", "dataset kind: synthetic | weblog | news | quest | market | clicks")
		rows    = flag.Int("rows", 10000, "rows (baskets / clients / documents)")
		cols    = flag.Int("cols", 1000, "columns (items / URLs / background vocabulary)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "output path (.arows = streaming binary, .carows = compressed streaming, else text)")
		words   = flag.String("words", "", "news only: also write the column vocabulary here")
		meanLen = flag.Int("mean-len", 0, "market/clicks only: mean row length (0 = default)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*kind, *rows, *cols, *seed, *out, *words, *meanLen); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// onesCounting wraps a streaming source so the save pass also tallies
// the ones for the summary line without a second scan.
type onesCounting struct {
	matrix.RowSource
	ones int64
}

func (c *onesCounting) Scan(fn func(row int, cols []int32) error) error {
	c.ones = 0
	return c.RowSource.Scan(func(row int, cols []int32) error {
		c.ones += int64(len(cols))
		return fn(row, cols)
	})
}

// runStream handles the scale-tier kinds, which never materialise a
// Dataset: rows stream from the seeded generator straight into the
// row-binary savers, so 10M+ row tiers cost constant memory.
func runStream(kind string, rows, cols int, seed uint64, out string, meanLen int) error {
	src := &onesCounting{RowSource: &gen.ZipfSource{
		Kind: kind, Rows: rows, Cols: cols, Seed: seed, MeanRowLen: meanLen,
	}}
	var err error
	switch {
	case strings.HasSuffix(out, ".carows"):
		err = matrix.SaveRowCompressed(out, src)
	case strings.HasSuffix(out, ".arows"):
		err = matrix.SaveRowBinary(out, src)
	default:
		return fmt.Errorf("kind %q streams rows; -out must end in .arows or .carows", kind)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d rows x %d cols, Zipf(s=1.1) column popularity\n", kind, rows, cols)
	fmt.Printf("wrote %s (%d ones, density %.4f%%)\n", out, src.ones,
		100*float64(src.ones)/(float64(rows)*float64(cols)))
	return nil
}

func run(kind string, rows, cols int, seed uint64, out, words string, meanLen int) error {
	if kind == "market" || kind == "clicks" {
		return runStream(kind, rows, cols, seed, out, meanLen)
	}
	var data *assocmine.Dataset
	switch kind {
	case "synthetic":
		d, planted, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{
			Rows: rows, Cols: cols, Seed: seed,
		})
		if err != nil {
			return err
		}
		data = d
		fmt.Printf("synthetic: %d rows x %d cols, %d planted pairs\n", rows, cols, len(planted))
	case "weblog":
		w, err := assocmine.GenerateWebLog(assocmine.WebLogOptions{
			Clients: rows, URLs: cols, Seed: seed,
		})
		if err != nil {
			return err
		}
		data = w.Data
		fmt.Printf("weblog: %d clients x %d URLs, %d resource groups\n", rows, cols, len(w.Groups))
	case "quest":
		q, err := assocmine.GenerateQuest(assocmine.QuestOptions{
			Transactions: rows, Items: cols, Seed: seed,
		})
		if err != nil {
			return err
		}
		data = q.Data
		fmt.Printf("quest: %d transactions x %d items, %d planted patterns\n",
			rows, cols, len(q.Patterns))
	case "news":
		n, err := assocmine.GenerateNews(assocmine.NewsOptions{
			Docs: rows, Vocab: cols, Seed: seed,
		})
		if err != nil {
			return err
		}
		data = n.Data
		fmt.Printf("news: %d docs x %d words (incl. planted), %d planted collocations\n",
			rows, n.Data.NumCols(), len(n.PlantedPairs))
		if words != "" {
			if err := writeWords(words, n.Words); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown kind %q (want synthetic, weblog, news, quest, market or clicks)", kind)
	}
	if err := data.Save(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d ones, density %.4f%%)\n", out, data.Ones(),
		100*float64(data.Ones())/float64(data.NumRows()*data.NumCols()))
	return nil
}

func writeWords(path string, words []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, word := range words {
		fmt.Fprintln(w, word)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
