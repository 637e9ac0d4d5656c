package assocmine

import (
	"assocmine/internal/driver"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// Every entry point is an adapter over internal/driver, the one
// sequencer of the paper's template: its Config becomes a driver.Input,
// and its Stats are read off the run's own Collector, so they agree
// with any attached Recorder exactly.

// input is the driver's Input for a run of cfg (defaults applied) over
// src.
func (c Config) input(src matrix.RowSource) driver.Input {
	return driver.Input{
		Src: src, Params: c.params(),
		Verify: verify.Params{Budget: verify.Budget{Bytes: c.MemoryBudget, Dir: c.SpillDir},
			Workers: c.Workers, Context: c.Context},
		SkipVerify: c.SkipVerify, Window: c.Window, Column: -1,
		MinSupport: c.MinSupport, Progress: c.Progress,
	}
}

// input is the driver's Input over the in-memory dataset.
func (d *Dataset) input(cfg Config) driver.Input {
	return cfg.input(d.m.Stream())
}

// similar runs one driver entry point over in with the run's own
// Collector teed to cfg.Recorder, and returns what it mined beside the
// Stats that Collector yields.
func similar(in driver.Input, cfg Config, entry func(driver.Input) ([]pairs.Scored, error)) (*Result, error) {
	inner := obs.NewCollector()
	in.Recorder = obs.Tee(inner, cfg.Recorder)
	ps, err := entry(in)
	if err != nil {
		return nil, err
	}
	res := &Result{Pairs: toPairs(ps), Stats: Stats{Algorithm: cfg.Algorithm}}
	res.Stats.fillFrom(inner)
	return res, nil
}

// fillFrom reads Stats off the Collector of the run that filled it: the
// phase spans' durations, the worker gauges (1 for a phase that ran
// serially or not at all) and the counters.
func (s *Stats) fillFrom(c *Collector) {
	s.SignatureTime = c.Span(obs.PhaseSignatures)
	s.CandidateTime = c.Span(obs.PhaseCandidates)
	s.VerifyTime = c.Span(obs.PhaseVerify)
	s.SignatureWorkers = max(1, int(c.Gauge(obs.GaugeSignatureWorkers)))
	s.CandidateWorkers = max(1, int(c.Gauge(obs.GaugeCandidateWorkers)))
	s.VerifyWorkers = max(1, int(c.Gauge(obs.GaugeVerifyWorkers)))
	s.Candidates = int(c.Counter(obs.CounterCandidates))
	s.Verified = int(c.Counter(obs.CounterPairsVerified))
	s.FalsePositives = int(c.Counter(obs.CounterFalsePositives))
	s.DataPasses = int(c.Counter(obs.CounterDataPasses))
	s.RowsScanned = c.Counter(obs.CounterRowsScanned)
	s.SignatureCells = c.Counter(obs.CounterSignatureCells)
	s.SignatureBytes = c.Gauge(obs.GaugeSignatureBytes)
	s.CandidateIncrements = c.Counter(obs.CounterIncrements)
	s.BucketPairs = c.Counter(obs.CounterBucketPairs)
	s.VerifyTouches = c.Counter(obs.CounterVerifyTouches)
	s.BytesRead = c.Counter(obs.CounterBytesRead)
	s.ShardsStreamed = c.Counter(obs.CounterShards)
	s.SpillRuns = c.Counter(obs.CounterSpillRuns)
	s.SpillBytes = c.Counter(obs.CounterSpillBytes)
	s.IORetries = c.Counter(obs.CounterIORetries)
	s.PackedWords = c.Counter(obs.CounterPackedWords)
	s.PackedBatches = c.Counter(obs.CounterPackedBatches)
	s.PairsSampled = c.Counter(obs.CounterPairsSampled)
	s.SampleAccepts = c.Counter(obs.CounterSampleAccepts)
	s.SampleDups = c.Counter(obs.CounterSampleDups)
}

// toPairs converts the driver's pairs; an unverified pair carries no
// exact similarity, so its Similarity is 0.
func toPairs(ps []pairs.Scored) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate, Similarity: p.Exact}
	}
	return out
}
