package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricPrefix namespaces every exported series.
const metricPrefix = "assocmine_"

// WriteTo renders the collector state in the Prometheus text exposition
// format: counters as <prefix><name>_total, gauges bare, and phase
// spans as the assocmine_phase_runs_total / assocmine_phase_seconds
// pair labelled by phase. Output is sorted, so equal states render to
// equal bytes. Implements io.WriterTo.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	s := c.snapshot()
	var b strings.Builder

	names := sortedKeys(s.Counters)
	for _, name := range names {
		fmt.Fprintf(&b, "# TYPE %s%s_total counter\n%s%s_total %d\n",
			metricPrefix, name, metricPrefix, name, s.Counters[name])
	}
	names = sortedKeys(s.Gauges)
	for _, name := range names {
		fmt.Fprintf(&b, "# TYPE %s%s gauge\n%s%s %d\n",
			metricPrefix, name, metricPrefix, name, s.Gauges[name])
	}
	if len(s.Spans) > 0 {
		phases := make([]string, 0, len(s.Spans))
		for p := range s.Spans {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		fmt.Fprintf(&b, "# TYPE %sphase_runs_total counter\n", metricPrefix)
		for _, p := range phases {
			fmt.Fprintf(&b, "%sphase_runs_total{phase=%q} %d\n", metricPrefix, p, s.Spans[p].Count)
		}
		fmt.Fprintf(&b, "# TYPE %sphase_seconds counter\n", metricPrefix)
		for _, p := range phases {
			fmt.Fprintf(&b, "%sphase_seconds{phase=%q} %g\n", metricPrefix, p, s.Spans[p].Total.Seconds())
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
