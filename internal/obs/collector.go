package obs

import (
	"sync"
	"time"
)

// phaseSpan aggregates the spans recorded for one phase: how many times
// the phase ran and the total wall-clock spent in it.
type phaseSpan struct {
	Count int64
	Total time.Duration
}

// snapshot is a point-in-time copy of a Collector's state.
type snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Spans    map[string]phaseSpan
	// CurrentPhase is the most recently started, not yet ended phase
	// ("" when idle).
	CurrentPhase string
}

// Collector is a thread-safe in-memory Recorder. A zero Collector is
// not usable; construct with NewCollector. One Collector may observe
// many runs (counters and spans accumulate).
type Collector struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	spans    map[string]phaseSpan
	current  string
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		spans:    make(map[string]phaseSpan),
	}
}

// PhaseStart implements Recorder.
func (c *Collector) PhaseStart(phase string) {
	c.mu.Lock()
	c.current = phase
	c.mu.Unlock()
}

// PhaseEnd implements Recorder.
func (c *Collector) PhaseEnd(phase string, d time.Duration) {
	c.mu.Lock()
	sp := c.spans[phase]
	sp.Count++
	sp.Total += d
	c.spans[phase] = sp
	if c.current == phase {
		c.current = ""
	}
	c.mu.Unlock()
}

// Add implements Recorder.
func (c *Collector) Add(counter string, n int64) {
	c.mu.Lock()
	c.counters[counter] += n
	c.mu.Unlock()
}

// SetGauge implements Recorder.
func (c *Collector) SetGauge(gauge string, v int64) {
	c.mu.Lock()
	c.gauges[gauge] = v
	c.mu.Unlock()
}

// Counter returns the current value of a counter (0 if never added).
func (c *Collector) Counter(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Gauge returns the last value set for a gauge (0 if never set).
func (c *Collector) Gauge(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gauges[name]
}

// Span returns the total duration recorded for a phase (0 if it never
// ended).
func (c *Collector) Span(phase string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans[phase].Total
}

// snapshot returns a copy of all recorded state.
func (c *Collector) snapshot() snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := snapshot{
		Counters:     make(map[string]int64, len(c.counters)),
		Gauges:       make(map[string]int64, len(c.gauges)),
		Spans:        make(map[string]phaseSpan, len(c.spans)),
		CurrentPhase: c.current,
	}
	for k, v := range c.counters {
		s.Counters[k] = v
	}
	for k, v := range c.gauges {
		s.Gauges[k] = v
	}
	for k, v := range c.spans {
		s.Spans[k] = v
	}
	return s
}
