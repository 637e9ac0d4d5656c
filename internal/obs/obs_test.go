package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorBasics(t *testing.T) {
	c := NewCollector()
	c.PhaseStart(PhaseSignatures)
	if s := c.snapshot(); s.CurrentPhase != PhaseSignatures {
		t.Errorf("CurrentPhase = %q, want %q", s.CurrentPhase, PhaseSignatures)
	}
	c.PhaseEnd(PhaseSignatures, 10*time.Millisecond)
	c.Add(CounterRowsScanned, 100)
	c.Add(CounterRowsScanned, 50)
	c.SetGauge(GaugeSignatureWorkers, 4)
	c.SetGauge(GaugeSignatureWorkers, 8)

	if got := c.Counter(CounterRowsScanned); got != 150 {
		t.Errorf("counter = %d, want 150", got)
	}
	if got := c.Gauge(GaugeSignatureWorkers); got != 8 {
		t.Errorf("gauge = %d, want 8", got)
	}
	sp := c.snapshot().Spans[PhaseSignatures]
	if sp.Count != 1 || sp.Total != 10*time.Millisecond {
		t.Errorf("span = %+v, want {1 10ms}", sp)
	}
	if s := c.snapshot(); s.CurrentPhase != "" {
		t.Errorf("CurrentPhase after end = %q, want empty", s.CurrentPhase)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(CounterIncrements, 1)
				c.SetGauge(GaugeVerifyWorkers, int64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Counter(CounterIncrements); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestNopZeroAllocs(t *testing.T) {
	rec := OrNop(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		rec.PhaseStart(PhaseVerify)
		rec.Add(CounterVerifyTouches, 1)
		rec.SetGauge(GaugeVerifyWorkers, 4)
		rec.PhaseEnd(PhaseVerify, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("no-op recorder allocates %v per run, want 0", allocs)
	}
}

func TestOrNopAndTee(t *testing.T) {
	if OrNop(nil) == nil {
		t.Fatal("OrNop(nil) returned nil")
	}
	a, b := NewCollector(), NewCollector()
	rec := Tee(a, b)
	rec.Add(CounterCandidates, 7)
	rec.PhaseStart(PhaseCandidates)
	rec.PhaseEnd(PhaseCandidates, time.Second)
	rec.SetGauge(GaugeCandidateWorkers, 2)
	for _, c := range []*Collector{a, b} {
		if c.Counter(CounterCandidates) != 7 || c.snapshot().Spans[PhaseCandidates].Count != 1 || c.Gauge(GaugeCandidateWorkers) != 2 {
			t.Error("tee did not forward to both recorders")
		}
	}
	if Tee(nil, a) != a {
		t.Error("Tee(nil, a) != a")
	}
	// Tee(a, nil) must still record into a.
	Tee(a, nil).Add(CounterCandidates, 1)
	if a.Counter(CounterCandidates) != 8 {
		t.Error("Tee(a, nil) dropped events")
	}
}

func TestPrometheusWriteTo(t *testing.T) {
	c := NewCollector()
	c.Add(CounterCandidates, 42)
	c.Add(CounterFalsePositives, 5)
	c.SetGauge(GaugeVerifyWorkers, 4)
	c.PhaseStart(PhaseVerify)
	c.PhaseEnd(PhaseVerify, 1500*time.Millisecond)

	var sb strings.Builder
	if _, err := c.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"assocmine_candidates_total 42",
		"assocmine_false_positives_total 5",
		"assocmine_verify_workers 4",
		`assocmine_phase_runs_total{phase="verify"} 1`,
		`assocmine_phase_seconds{phase="verify"} 1.5`,
		"# TYPE assocmine_candidates_total counter",
		"# TYPE assocmine_verify_workers gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic rendering for equal states.
	var sb2 strings.Builder
	if _, err := c.WriteTo(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("WriteTo is not deterministic")
	}
}

func TestExpvarPublish(t *testing.T) {
	c := NewCollector()
	c.Add(CounterCandidates, 3)
	publish("test_collector", c)
	// Re-publishing must not panic and must rebind.
	c2 := NewCollector()
	c2.Add(CounterCandidates, 9)
	publish("test_collector", c2)

	v := c2.expvarFunc()
	if !strings.Contains(v.String(), "\"candidates\":9") {
		t.Errorf("expvar func missing counter: %s", v.String())
	}
}
