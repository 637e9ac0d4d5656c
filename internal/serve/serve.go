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

// ErrStaticIndex is returned by Refresh when the server was built from
// preloaded static indexes (or an in-memory dataset) and has no ingest
// state to catch up from.
var ErrStaticIndex = errors.New("serve: index is static; refresh needs a file-backed server with ingest state")

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
	// MaxBodyBytes caps request bodies; default 1 MiB.
	MaxBodyBytes int64
	// CacheSize bounds the response cache: rendered 200 responses to
	// the read-only query endpoints, keyed by (index generation,
	// canonical request body) and invalidated when a refresh swaps the
	// generation. 0 means 256 entries; negative disables caching.
	CacheSize int
	// RefreshInterval, for file-backed servers, enables periodic
	// self-refresh: the backing file is stat-polled at this interval
	// and appended rows are folded in through the same incremental
	// path as /v1/refresh. 0 disables; static servers ignore it.
	RefreshInterval time.Duration
	// Collector receives the server's metrics: query counters, per-
	// endpoint latency spans, and the pipeline counters of the
	// pair-style queries (pairs, topk, toppairs — a rules run has no
	// recorder and an expr evaluation no pipeline). One is created when
	// nil; exposed on /metrics and /debug/vars.
	Collector *obs.Collector
	// Signatures and Sketches, when non-nil, are preloaded indexes
	// (LoadSignatures/LoadSketches) adopted instead of computing at
	// startup. A server with a preloaded index cannot Refresh.
	Signatures *assocmine.Signatures
	Sketches   *assocmine.Sketches
	// SnapshotMH and SnapshotKMH, for file-backed servers, are AIN1
	// ingest-snapshot paths: resumed at startup when present, created
	// otherwise, and saved back after every catch-up, so restarts fold
	// only unseen rows.
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
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.Collector == nil {
		o.Collector = obs.NewCollector()
	}
}

// index is one immutable generation of the resident indexes. Queries
// grab the current generation once and use it throughout, so a
// concurrent Refresh never mixes generations within a query.
type index struct {
	data *assocmine.Dataset
	sig  *assocmine.Signatures
	sk   *assocmine.Sketches
	expr *assocmine.ExprEvaluator
}

func (ix *index) info() indexInfo {
	inf := indexInfo{}
	if ix.sig != nil {
		inf.haveSig, inf.sigK = true, ix.sig.K()
	}
	if ix.sk != nil {
		inf.haveSk = true
	}
	return inf
}

// Server is a resident similarity service: signatures and sketches
// computed (or loaded) once, kept warm, answering concurrent queries.
// All methods are safe for concurrent use.
type Server struct {
	opts Options
	coll *obs.Collector

	// path and the ingests are set only for file-backed servers; they
	// are what Refresh catches up. refreshMu serialises refreshes.
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

// New builds a server over an in-memory dataset, computing any index
// not preloaded in opts. The resulting server is static: Refresh
// returns ErrStaticIndex.
func New(data *assocmine.Dataset, opts Options) (*Server, error) {
	opts.setDefaults()
	sig := opts.Signatures
	if sig == nil {
		var err error
		if sig, err = assocmine.ComputeSignatures(data, opts.SigK, opts.Seed, opts.Workers); err != nil {
			return nil, fmt.Errorf("serve: computing signatures: %w", err)
		}
	}
	sk := opts.Sketches
	if sk == nil {
		var err error
		if sk, err = assocmine.ComputeSketches(data, opts.SketchK, opts.Seed, opts.Workers); err != nil {
			return nil, fmt.Errorf("serve: computing sketches: %w", err)
		}
	}
	return finishNew(opts, &index{data: data, sig: sig, sk: sk}, "", nil, nil)
}

// NewFromFile builds a server over a dataset file. Indexes not
// preloaded in opts are built through the incremental-ingest catch-up
// path (resuming from opts.Snapshot* when set), which is also what
// makes Refresh possible: when the file grows, Refresh folds only the
// unseen rows and swaps in a fresh index generation.
func NewFromFile(path string, opts Options) (*Server, error) {
	opts.setDefaults()
	fd, err := assocmine.OpenFileDataset(path)
	if err != nil {
		return nil, err
	}
	var ingMH, ingKMH *assocmine.Ingest
	sig, sk := opts.Signatures, opts.Sketches
	if sig == nil {
		if ingMH, err = openIngest(assocmine.MinHash, opts.SnapshotMH, fd.NumCols(), opts.SigK, opts.Seed); err != nil {
			return nil, err
		}
		if _, err = ingMH.CatchUp(fd, opts.Workers); err != nil {
			return nil, fmt.Errorf("serve: mh catch-up: %w", err)
		}
		if sig, err = ingMH.Signatures(); err != nil {
			return nil, err
		}
	}
	if sk == nil {
		if ingKMH, err = openIngest(assocmine.KMinHash, opts.SnapshotKMH, fd.NumCols(), opts.SketchK, opts.Seed); err != nil {
			return nil, err
		}
		if _, err = ingKMH.CatchUp(fd, opts.Workers); err != nil {
			return nil, fmt.Errorf("serve: kmh catch-up: %w", err)
		}
		if sk, err = ingKMH.Sketches(); err != nil {
			return nil, err
		}
	}
	data, err := fd.Load()
	if err != nil {
		return nil, err
	}
	s, err := finishNew(opts, &index{data: data, sig: sig, sk: sk}, path, ingMH, ingKMH)
	if err != nil {
		return nil, err
	}
	if err := s.saveSnapshots(); err != nil {
		return nil, err
	}
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

func finishNew(opts Options, ix *index, path string, ingMH, ingKMH *assocmine.Ingest) (*Server, error) {
	if ix.sig.NumCols() != ix.data.NumCols() {
		return nil, fmt.Errorf("serve: signatures cover %d columns, dataset has %d", ix.sig.NumCols(), ix.data.NumCols())
	}
	if ix.sk.NumCols() != ix.data.NumCols() {
		return nil, fmt.Errorf("serve: sketches cover %d columns, dataset has %d", ix.sk.NumCols(), ix.data.NumCols())
	}
	ix.expr = assocmine.NewExprEvaluatorFromSketches(ix.sk)
	s := &Server{
		opts:   opts,
		coll:   opts.Collector,
		path:   path,
		ingMH:  ingMH,
		ingKMH: ingKMH,
		idx:    ix,
	}
	if opts.CacheSize > 0 {
		s.cache = newResponseCache(opts.CacheSize)
	}
	s.handler = s.buildMux()
	s.coll.SetGauge("serve_rows", int64(ix.data.NumRows()))
	s.coll.SetGauge("serve_cols", int64(ix.data.NumCols()))
	return s, nil
}

func (s *Server) saveSnapshots() error {
	if s.ingMH != nil && s.opts.SnapshotMH != "" {
		if err := s.ingMH.Save(s.opts.SnapshotMH); err != nil {
			return err
		}
	}
	if s.ingKMH != nil && s.opts.SnapshotKMH != "" {
		if err := s.ingKMH.Save(s.opts.SnapshotKMH); err != nil {
			return err
		}
	}
	return nil
}

// index returns the current index generation.
func (s *Server) index() *index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx
}

// Refresh re-opens the backing file, folds rows appended since the
// last catch-up into the ingest states (O(new rows) — the PR 7
// incremental path, never a recompute), rebuilds the index generation
// and swaps it in. In-flight queries keep the generation they started
// with; on error the old generation stays live. Returns the number of
// new rows folded.
func (s *Server) Refresh() (int, error) {
	if s.path == "" || s.ingMH == nil || s.ingKMH == nil {
		return 0, ErrStaticIndex
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	fd, err := assocmine.OpenFileDataset(s.path)
	if err != nil {
		return 0, err
	}
	n, err := s.ingMH.CatchUp(fd, s.opts.Workers)
	if err != nil {
		return 0, fmt.Errorf("serve: mh catch-up: %w", err)
	}
	if _, err := s.ingKMH.CatchUp(fd, s.opts.Workers); err != nil {
		return 0, fmt.Errorf("serve: kmh catch-up: %w", err)
	}
	if n == 0 {
		return 0, nil // nothing new; current generation is already right
	}
	sig, err := s.ingMH.Signatures()
	if err != nil {
		return 0, err
	}
	sk, err := s.ingKMH.Sketches()
	if err != nil {
		return 0, err
	}
	data, err := fd.Load()
	if err != nil {
		return 0, err
	}
	ix := &index{data: data, sig: sig, sk: sk, expr: assocmine.NewExprEvaluatorFromSketches(sk)}
	if err := s.saveSnapshots(); err != nil {
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
	s.coll.SetGauge("serve_rows", int64(data.NumRows()))
	return n, nil
}

// startRefresher launches the periodic self-refresh poller when the
// server can refresh and RefreshInterval asks for it. The backing
// file is stat-polled each tick; a size or mtime change triggers the
// same incremental catch-up as /v1/refresh. Stat first, so an
// unchanged file costs one syscall per tick, not a header parse.
func (s *Server) startRefresher() {
	if s.opts.RefreshInterval <= 0 || s.path == "" || s.ingMH == nil || s.ingKMH == nil {
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
				if _, err := s.Refresh(); err != nil {
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

// Inflight returns the number of queries currently executing.
func (s *Server) Inflight() int64 { return s.inflightN.Load() }

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
// pair-style query: the server's worker and seed policy plus the
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
