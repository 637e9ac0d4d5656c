package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call into a layer during the traced round. Spans live in
// memory and are written out when the workload ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a segment's root span
	Round  int     `json:"round"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the trace began
	End    float64 `json:"end_s"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	round int
	spans []span
}

func newTracer(round int) *tracer { return &tracer{t0: time.Now(), round: round} }

// open starts a span and returns its id.
func (t *tracer) open(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Name: name, Start: time.Since(t.t0).Seconds()})
	return id
}

// close ends a span and returns its duration in seconds.
func (t *tracer) close(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	return s.End - s.Start
}

// run spans one call.
func (t *tracer) run(parent int, name string, f func() error) (float64, error) {
	id := t.open(parent, name)
	err := f()
	return t.close(id), err
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
