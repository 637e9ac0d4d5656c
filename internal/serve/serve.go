package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"assocmine"
	"assocmine/internal/obs"
)

// Options configures a Server. Zero values select the documented
// defaults.
type Options struct {
	// SigK is the min-hash signature size computed at startup; default
	// 200 (rule confidence estimation needs K >= 200, §6, and pair
	// queries only get more accurate).
	SigK int
	// SketchK is the bottom-k sketch size; default 256 (also the
	// expression evaluator's sketch, error ~1/sqrt(k), §7).
	SketchK int
	// Seed drives all hashing; default 1.
	Seed uint64
	// Workers is the per-query worker budget (assocmine.Config.Workers
	// semantics). Default 1 — a serving process gets its parallelism
	// from concurrent queries, not from fanning out each one.
	Workers int
	// DefaultTimeout is the per-query wall-clock budget applied when a
	// request does not set timeout_ms; 0 means no default limit.
	DefaultTimeout time.Duration
	// MaxTimeout caps the budget any request may ask for; default 1m.
	MaxTimeout time.Duration
	// MemoryBudget is the per-query verification memory budget
	// (assocmine.Config.MemoryBudget semantics): the default when a
	// request sets no mem_budget, and the cap for requests that do.
	// 0 means unlimited.
	MemoryBudget int64
	// SpillDir receives budgeted-verification spill runs; "" = OS temp.
	SpillDir string
	// MaxTopK caps k/n in top-k queries; default 100.
	MaxTopK int
	// CacheSize bounds the response cache: rendered 200 responses to
	// the read-only query endpoints, keyed by (index generation,
	// canonical request body) and invalidated when a refresh swaps the
	// generation. 0 means 256 entries; negative disables caching.
	CacheSize int
	// RefreshInterval enables periodic self-refresh: the backing file
	// is stat-polled at this interval and appended rows are folded in
	// through the same incremental path as /v1/refresh. 0 disables.
	RefreshInterval time.Duration
	// SnapshotMH and SnapshotKMH are AIN1 ingest-snapshot paths: resumed
	// at startup when present, created otherwise, and saved back after
	// every catch-up, so restarts fold only unseen rows.
	SnapshotMH  string
	SnapshotKMH string
}

func (o *Options) setDefaults() {
	if o.SigK == 0 {
		o.SigK = 200
	}
	if o.SketchK == 0 {
		o.SketchK = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = time.Minute
	}
	if o.MaxTopK == 0 {
		o.MaxTopK = 100
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
}

// index is one immutable generation of the resident indexes. Queries
// grab the current generation once and use it throughout, so a
// concurrent refresh never mixes generations within a query.
type index struct {
	data *assocmine.Dataset
	sig  *assocmine.Signatures
	sk   *assocmine.Sketches
	expr *assocmine.ExprEvaluator
}

// Server is a resident similarity service: signatures and sketches
// folded (or resumed from snapshots) once, kept warm, answering
// concurrent queries.
// All methods are safe for concurrent use.
type Server struct {
	opts Options
	// coll receives the server's metrics: query counters, per-endpoint
	// latency spans, and the pipeline counters of the queries that scan
	// data (pairs, topk, toppairs, rules — an expr evaluation has no
	// pipeline); exposed on /metrics and /debug/vars.
	coll *obs.Collector

	// path and the ingests are what refresh catches up. refreshMu
	// serialises refreshes.
	path          string
	ingMH, ingKMH *assocmine.Ingest
	refreshMu     sync.Mutex

	mu  sync.RWMutex // guards idx
	idx *index

	// cache is the LRU response cache; nil when disabled.
	cache *responseCache

	// refreshStop/refreshDone bracket the self-refresh poller's
	// lifetime; refreshOnce makes stopping idempotent across repeated
	// Shutdowns.
	refreshStop chan struct{}
	refreshDone chan struct{}
	refreshOnce sync.Once

	// drainMu orders the draining flag against in-flight registration:
	// handlers hold the read side while checking the flag and joining
	// the WaitGroup, so Shutdown's Wait can never race an Add.
	drainMu   sync.RWMutex
	draining  bool
	inflight  sync.WaitGroup
	inflightN atomic.Int64
	queries   atomic.Int64

	handler http.Handler

	// queryGate, when set (tests only), runs inside every query after
	// in-flight registration and before the handler body — a seam for
	// holding a known number of queries in flight deterministically.
	queryGate func(name string)

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// NewFromFile builds a server over a dataset file. Both indexes are
// built through the incremental-ingest catch-up path (resuming from
// opts.Snapshot* when set), which is also what makes refresh possible:
// when the file grows, refresh folds only the unseen rows and swaps in
// a fresh index generation.
func NewFromFile(path string, opts Options) (*Server, error) {
	opts.setDefaults()
	fd, err := assocmine.OpenFileDataset(path)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, coll: obs.NewCollector(), path: path}
	if s.ingMH, err = openIngest(assocmine.MinHash, opts.SnapshotMH, fd.NumCols(), opts.SigK, opts.Seed); err != nil {
		return nil, err
	}
	if s.ingKMH, err = openIngest(assocmine.KMinHash, opts.SnapshotKMH, fd.NumCols(), opts.SketchK, opts.Seed); err != nil {
		return nil, err
	}
	if _, err := s.catchUp(fd); err != nil {
		return nil, err
	}
	if s.idx, err = s.generation(fd); err != nil {
		return nil, err
	}
	if opts.CacheSize > 0 {
		s.cache = newResponseCache(opts.CacheSize)
	}
	s.handler = s.buildMux()
	s.coll.SetGauge("serve_rows", int64(s.idx.data.NumRows()))
	s.coll.SetGauge("serve_cols", int64(s.idx.data.NumCols()))
	s.startRefresher()
	return s, nil
}

// openIngest resumes an AIN1 snapshot when path names one, validating
// it against the server's index parameters, and starts fresh
// otherwise.
func openIngest(algo assocmine.Algorithm, path string, cols, k int, seed uint64) (*assocmine.Ingest, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			in, err := assocmine.LoadIngest(path)
			if err != nil {
				return nil, err
			}
			if in.Algorithm() != algo || in.K() != k || in.Seed() != seed {
				return nil, fmt.Errorf("serve: snapshot %s was built with algo %v k %d seed %d, server wants %v/%d/%d",
					path, in.Algorithm(), in.K(), in.Seed(), algo, k, seed)
			}
			if in.WindowBatches() != 0 {
				return nil, fmt.Errorf("serve: snapshot %s uses a sliding window; the resident service serves full-history indexes", path)
			}
			if in.NumCols() != cols {
				return nil, fmt.Errorf("serve: snapshot %s covers %d columns, dataset has %d", path, in.NumCols(), cols)
			}
			return in, nil
		}
	}
	return assocmine.NewIngest(algo, cols, k, seed, 0)
}

// catchUp folds the rows of fd neither ingest has seen and returns
// how many there were.
func (s *Server) catchUp(fd *assocmine.FileDataset) (int, error) {
	n, err := s.ingMH.CatchUp(fd, s.opts.Workers)
	if err != nil {
		return 0, fmt.Errorf("serve: mh catch-up: %w", err)
	}
	if _, err := s.ingKMH.CatchUp(fd, s.opts.Workers); err != nil {
		return 0, fmt.Errorf("serve: kmh catch-up: %w", err)
	}
	return n, nil
}

// generation finishes both ingests into an index generation over fd's
// rows and saves the snapshots the options name.
func (s *Server) generation(fd *assocmine.FileDataset) (*index, error) {
	sig, err := s.ingMH.Signatures()
	if err != nil {
		return nil, err
	}
	sk, err := s.ingKMH.Sketches()
	if err != nil {
		return nil, err
	}
	data, err := fd.Load()
	if err != nil {
		return nil, err
	}
	ix := &index{data: data, sig: sig, sk: sk, expr: assocmine.NewExprEvaluator(sk)}
	if s.opts.SnapshotMH != "" {
		if err := s.ingMH.Save(s.opts.SnapshotMH); err != nil {
			return nil, err
		}
	}
	if s.opts.SnapshotKMH != "" {
		if err := s.ingKMH.Save(s.opts.SnapshotKMH); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// index returns the current index generation.
func (s *Server) index() *index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx
}

// refresh re-opens the backing file, folds rows appended since the
// last catch-up into the ingest states (O(new rows) — the
// incremental path, never a recompute), rebuilds the index generation
// and swaps it in. In-flight queries keep the generation they started
// with; on error the old generation stays live. Returns the number of
// new rows folded.
func (s *Server) refresh() (int, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	fd, err := assocmine.OpenFileDataset(s.path)
	if err != nil {
		return 0, err
	}
	n, err := s.catchUp(fd)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil // nothing new; current generation is already right
	}
	ix, err := s.generation(fd)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.idx = ix
	s.mu.Unlock()
	// Entries keyed to the old generation can no longer be hit; drop
	// them now rather than waiting for LRU pressure.
	if s.cache != nil {
		s.cache.purge()
	}
	s.coll.Add("index_refreshes", 1)
	s.coll.SetGauge("serve_rows", int64(ix.data.NumRows()))
	return n, nil
}

// startRefresher launches the periodic self-refresh poller when
// RefreshInterval asks for it. The backing file is stat-polled each
// tick; a size or mtime change triggers the same incremental catch-up
// as /v1/refresh. Stat first, so an unchanged file costs one syscall
// per tick, not a header parse.
func (s *Server) startRefresher() {
	if s.opts.RefreshInterval <= 0 {
		return
	}
	s.refreshStop = make(chan struct{})
	s.refreshDone = make(chan struct{})
	var lastSize int64
	var lastMod time.Time
	if fi, err := os.Stat(s.path); err == nil {
		lastSize, lastMod = fi.Size(), fi.ModTime()
	}
	go func() {
		defer close(s.refreshDone)
		t := time.NewTicker(s.opts.RefreshInterval)
		defer t.Stop()
		for {
			select {
			case <-s.refreshStop:
				return
			case <-t.C:
				fi, err := os.Stat(s.path)
				if err != nil {
					s.coll.Add("refresh_errors", 1)
					continue
				}
				if fi.Size() == lastSize && fi.ModTime().Equal(lastMod) {
					continue
				}
				lastSize, lastMod = fi.Size(), fi.ModTime()
				if _, err := s.refresh(); err != nil {
					s.coll.Add("refresh_errors", 1)
				}
			}
		}
	}()
}

// stopRefresher halts the self-refresh poller and waits it out, so no
// refresh can start after Shutdown returns. Safe to call repeatedly
// and on servers that never started one.
func (s *Server) stopRefresher() {
	if s.refreshStop == nil {
		return
	}
	s.refreshOnce.Do(func() { close(s.refreshStop) })
	<-s.refreshDone
}

// Handler returns the server's HTTP handler (stable across calls), for
// tests and embedding; Start is the listener-owning convenience.
func (s *Server) Handler() http.Handler { return s.handler }

// Collector returns the server's metrics collector.
func (s *Server) Collector() *obs.Collector { return s.coll }

// Queries returns the number of query requests accepted so far.
func (s *Server) Queries() int64 { return s.queries.Load() }

// Start listens on addr ("host:port"; ":0" picks a free port) and
// serves in a background goroutine until Shutdown. It returns the
// bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.httpSrv != nil {
		return nil, errors.New("serve: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.handler}
	s.httpSrv = srv
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown drains the server gracefully: new queries are refused with
// 503, the listener (when Start was used) stops accepting, and the
// call blocks until every in-flight query has completed or ctx
// expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.stopRefresher()
	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return err
}

// enter registers one in-flight query; it reports false once the
// server is draining. The paired leave must be called iff it returns
// true.
func (s *Server) enter() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	s.queries.Add(1)
	return true
}

func (s *Server) leave() {
	s.inflightN.Add(-1)
	s.inflight.Done()
}

// queryContext derives a query's context from the request context (so
// a disconnecting client cancels its query) plus the effective
// wall-clock budget: timeout_ms when set, else DefaultTimeout, both
// capped by MaxTimeout.
func (s *Server) queryContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && (d <= 0 || d > s.opts.MaxTimeout) {
		d = s.opts.MaxTimeout
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// queryConfig assembles the assocmine.Config shared by every
// query that scans data: the server's worker and seed policy plus the
// query's context and effective memory budget (request value capped
// by the server's budget; 0 falls back to the server's).
func (s *Server) queryConfig(ctx context.Context, memBudget int64) assocmine.Config {
	b := memBudget
	if b == 0 {
		b = s.opts.MemoryBudget
	}
	if s.opts.MemoryBudget > 0 && b > s.opts.MemoryBudget {
		b = s.opts.MemoryBudget
	}
	return assocmine.Config{
		Seed:         s.opts.Seed,
		Workers:      s.opts.Workers,
		Context:      ctx,
		MemoryBudget: b,
		SpillDir:     s.opts.SpillDir,
		Recorder:     s.coll,
	}
}
