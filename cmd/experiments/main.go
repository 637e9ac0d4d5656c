// Command experiments regenerates every table and figure of the
// paper's evaluation section on the substitute workloads (see
// DESIGN.md for the substitution rationale). Output is plain text, one
// block per figure/table, suitable for diffing against EXPERIMENTS.md.
//
// Usage:
//
//	experiments                 # all experiments at the small scale
//	experiments -scale full     # closer to the paper's dataset sizes
//	experiments -fig 5          # only Fig. 5
//	experiments -fig synthetic  # the synthetic-data recall table
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"assocmine/internal/eval"
)

func main() {
	var (
		scale  = flag.String("scale", "small", "workload scale: small | full")
		fig    = flag.String("fig", "all", "which experiment: 1..9, synthetic, rules, composite, optimizer, quest, or all")
		seed   = flag.Uint64("seed", 1, "workload seed")
		format = flag.String("format", "text", "output format: text | markdown")
	)
	flag.Parse()
	if err := run(*scale, *fig, *seed, *format); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scale, fig string, seed uint64, format string) error {
	markdown := false
	switch format {
	case "text":
	case "markdown":
		markdown = true
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	var sc eval.Scale
	switch scale {
	case "small":
		sc = eval.SmallScale()
	case "full":
		sc = eval.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	sc.Seed = seed

	out := os.Stdout
	fmt.Fprintf(out, "assocmine experiment suite — scale=%s seed=%d\n", scale, seed)
	fmt.Fprintf(out, "workloads: weblog %dx%d, news %dx%d(+planted), synthetic %dx%d\n\n",
		sc.WebClients, sc.WebURLs, sc.NewsDocs, sc.NewsVocab, sc.SynRows, sc.SynCols)

	start := time.Now()
	var w *eval.Workloads
	needWorkloads := fig != "2" // Fig. 2 is purely analytic
	if needWorkloads {
		var err error
		w, err = eval.NewWorkloads(sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generated workloads + web ground truth in %v (%d true pairs >= %.1f)\n\n",
			time.Since(start).Round(time.Millisecond), len(w.WebTruth.Pairs), w.WebTruth.Floor)
	}

	want := func(id string) bool { return fig == "all" || fig == id }
	emitT := func(t eval.Table) {
		if markdown {
			t.FormatMarkdown(out)
		} else {
			t.Format(out)
		}
	}
	emitF := func(f eval.Figure) {
		if markdown {
			f.FormatMarkdown(out)
		} else {
			f.Format(out)
		}
	}

	if want("1") {
		t, err := eval.Fig1(w)
		if err != nil {
			return fmt.Errorf("fig1: %w", err)
		}
		emitT(t)
	}
	if want("2") {
		for _, f := range eval.Fig2() {
			emitF(f)
		}
	}
	if want("3") {
		figs, err := eval.Fig3(w)
		if err != nil {
			return fmt.Errorf("fig3: %w", err)
		}
		for _, f := range figs {
			emitF(f)
		}
	}
	if want("4") {
		t, _, err := eval.Fig4(w, nil, 0)
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		emitT(t)
	}
	type figFn struct {
		id string
		fn func(*eval.Workloads) ([]eval.Figure, error)
	}
	for _, ff := range []figFn{{"5", eval.Fig5}, {"6", eval.Fig6}, {"7", eval.Fig7}, {"8", eval.Fig8}} {
		if !want(ff.id) {
			continue
		}
		figs, err := ff.fn(w)
		if err != nil {
			return fmt.Errorf("fig%s: %w", ff.id, err)
		}
		for _, f := range figs {
			emitF(f)
		}
	}
	if want("9") {
		figs, _, err := eval.Fig9(w, nil)
		if err != nil {
			return fmt.Errorf("fig9: %w", err)
		}
		for _, f := range figs {
			emitF(f)
		}
	}
	if want("synthetic") {
		t, err := eval.SyntheticExperiment(w)
		if err != nil {
			return fmt.Errorf("synthetic: %w", err)
		}
		emitT(t)
	}
	if want("rules") {
		t, err := eval.RulesExperiment(w)
		if err != nil {
			return fmt.Errorf("rules: %w", err)
		}
		emitT(t)
	}
	if want("composite") {
		t, err := eval.CompositeExperiment(w)
		if err != nil {
			return fmt.Errorf("composite: %w", err)
		}
		emitT(t)
	}
	if want("optimizer") {
		t, err := eval.OptimizerExperiment(w)
		if err != nil {
			return fmt.Errorf("optimizer: %w", err)
		}
		emitT(t)
	}
	if want("quest") {
		t, err := eval.QuestExperiment(sc)
		if err != nil {
			return fmt.Errorf("quest: %w", err)
		}
		emitT(t)
	}
	fmt.Fprintf(out, "total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
