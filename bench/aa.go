package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check the accepting driver also makes: the suite is
// run as two interleaved sets (A, B, A, B, …) of n runs per workload,
// run i of both sets on seed i. For every end-to-end metric it prints
// both medians, how much worse B's is than A's, each set's quartile
// spread as a share of its median, and the bound; it reports false when
// a median moved, or a spread reached, beyond the bound. (The driver
// lets the spread of setup_s pass; this check does not.)
func runAA(n int, o options, out io.Writer) bool {
	type key struct{ workload, metric string }
	vals := map[key]*[2][]float64{}
	ok := true
	for i := 1; i <= n; i++ {
		for _, w := range workloads {
			for set := 0; set < 2; set++ {
				res, err := runChild(w.name, uint64(i), o)
				if err != nil {
					fmt.Fprintf(out, "run %d set %c %s: %v\n", i, 'A'+set, w.name, err)
					ok = false
					continue
				}
				if !res.Correct {
					fmt.Fprintf(out, "run %d set %c %s: incorrect (%d of %d operations failed)\n", i, 'A'+set, w.name, res.Failed, res.Attempted)
					ok = false
				}
				fmt.Fprintf(os.Stderr, "aa: run %d set %c %s done\n", i, 'A'+set, w.name)
				for name, v := range res.Metrics {
					k := key{w.name, name}
					if vals[k] == nil {
						vals[k] = &[2][]float64{}
					}
					vals[k][set] = append(vals[k][set], v.Value)
				}
			}
		}
	}
	fmt.Fprintf(out, "A/A: two interleaved sets of %d runs per workload (seeds 1..%d), %g s of timed rounds each\n\n", n, n, o.seconds)
	fmt.Fprintln(out, "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := vals[key{w.name, d.Name}]
			if v == nil || len(v[0]) == 0 || len(v[1]) == 0 {
				continue
			}
			ma, mb := median(v[0]), median(v[1])
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrRatio(v[0]), iqrRatio(v[1])
			verdict := "ok"
			if worse > d.Bound || sa > d.Bound || sb > d.Bound {
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %+.2f %% | %.2f %% | %.2f %% | %g %% | %s |\n",
				w.name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintln(out, "\nwall_s of every run, in run order (s):")
	fmt.Fprintln(out)
	for _, w := range workloads {
		for set, name := range []string{"A", "B"} {
			if v := vals[key{w.name, "wall_s"}]; v != nil {
				fmt.Fprintf(out, "- %s %s: %.3f\n", w.name, name, v[set])
			}
		}
	}
	return ok
}

// runChild runs one workload in a child process — every workload is its
// own process — and parses the result line.
func runChild(workload string, seed uint64, o options) (*outcome, error) {
	scale := "full"
	if o.sizing.tiny {
		scale = "tiny"
	}
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-scale", scale)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	os.Stderr.Write(stdout) // the log of an A/A run keeps every run's rounds and metrics
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	res := &outcome{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
