package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"assocmine"
	"assocmine/internal/obs"
)

// defaultTopFloor bounds the descending top-k threshold search from
// below when the request sets no floor.
const defaultTopFloor = 0.05

// topStartThreshold is where the descending search starts (matches the
// library default).
const topStartThreshold = 0.9

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	obs.RegisterHTTP(mux, "assocserve", s.coll)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/v1/pairs", query(s, "pairs", s.pairs))
	mux.Handle("/v1/topk", query(s, "topk", s.topK))
	mux.Handle("/v1/toppairs", query(s, "toppairs", s.topPairs))
	mux.Handle("/v1/rules", query(s, "rules", s.rules))
	mux.Handle("/v1/expr", query(s, "expr", s.expr))
	mux.Handle("/v1/refresh", s.endpoint("refresh", s.handleRefresh))
	return mux
}

// httpError is a handler failure: a status plus a client-safe message,
// serialised as ErrorResponse by the endpoint wrapper.
type httpError struct {
	status int
	msg    string
}

func badRequest(err error) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: err.Error()}
}

// queryFailure maps an execution error (after validation passed) to a
// status: budget exhaustion is the caller's 504, everything else a 500.
func queryFailure(err error) *httpError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{status: http.StatusGatewayTimeout, msg: "query exceeded its time budget"}
	case errors.Is(err, context.Canceled):
		return &httpError{status: http.StatusRequestTimeout, msg: "query canceled"}
	default:
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// endpoint wraps a query handler with the serving policy shared by
// every /v1 route: POST only, drain-aware in-flight registration,
// per-endpoint query/error counters and a latency span.
func (s *Server) endpoint(name string, h func(http.ResponseWriter, *http.Request) *httpError) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if !s.enter() {
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		defer s.leave()
		if s.queryGate != nil {
			s.queryGate(name)
		}
		s.coll.Add("queries_"+name, 1)
		start := time.Now()
		herr := h(w, r)
		s.coll.PhaseEnd("serve_"+name, time.Since(start))
		if herr != nil {
			s.coll.Add("query_errors", 1)
			writeError(w, herr.status, herr.msg)
		}
	})
}

// readBody decodes the request body strictly (size-capped, unknown
// fields and trailing data rejected).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, dst any) *httpError {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
		}
		return badRequest(err)
	}
	if err := decodeRequest(body, dst); err != nil {
		return badRequest(err)
	}
	return nil
}

// query is the one path every read endpoint runs: decode the body,
// validate it against the generation that will answer, check the
// response cache, derive the query's context, execute, then encode the
// answer and cache it. exec is the endpoint's own part — what the
// request asks of the generation — and returns the 200 body.
func query[Q request](s *Server, name string, exec func(ctx context.Context, ix *index, q Q) (any, *httpError)) http.Handler {
	return s.endpoint(name, func(w http.ResponseWriter, r *http.Request) *httpError {
		var q Q
		if herr := s.readBody(w, r, &q); herr != nil {
			return herr
		}
		ix := s.index()
		if err := q.validate(ix, &s.opts); err != nil {
			return badRequest(err)
		}
		done, key := s.cacheCheck(w, ix, name, q)
		if done {
			return nil
		}
		ctx, cancel := s.queryContext(r, q.timeoutMS())
		defer cancel()
		resp, herr := exec(ctx, ix, q)
		if herr != nil {
			return herr
		}
		return s.writeCachedJSON(w, key, resp)
	})
}

// plan is where a pair-style query is planned: the plan for its
// effective threshold, resolved to the resident sketch that answers it
// and the configuration the library runs under.
func (s *Server) plan(ctx context.Context, ix *index, threshold float64, force string, memBudget int64) (Plan, assocmine.Resident, assocmine.Config, *httpError) {
	plan, err := choosePlan(threshold, ix.info(), force)
	if err != nil {
		return Plan{}, nil, assocmine.Config{}, badRequest(err)
	}
	res, cfg := plan.resolve(ix, s.queryConfig(ctx, memBudget))
	return plan, res, cfg, nil
}

func toPairJSON(ps []assocmine.Pair) []PairJSON {
	out := make([]PairJSON, len(ps))
	for i, p := range ps {
		out[i] = PairJSON{I: p.I, J: p.J, Estimate: p.Estimate, Similarity: p.Similarity}
	}
	return out
}

func (s *Server) pairs(ctx context.Context, ix *index, q PairsRequest) (any, *httpError) {
	plan, res, cfg, herr := s.plan(ctx, ix, q.Threshold, q.Algo, q.MemBudget)
	if herr != nil {
		return nil, herr
	}
	cfg.Threshold = q.Threshold
	out, err := assocmine.SimilarPairsWith(ix.data, res, cfg)
	if err != nil {
		return nil, queryFailure(err)
	}
	return PairsResponse{Plan: plan, Count: len(out.Pairs), Pairs: toPairJSON(out.Pairs)}, nil
}

// topFloor is the floor of a descending search: the request's, or the
// default when it sets none.
func topFloor(floor float64) float64 {
	if floor == 0 {
		return defaultTopFloor
	}
	return floor
}

// topConfig prepares the descending-search config shared by topk and
// toppairs: start at the standard threshold, or at the floor itself
// when the caller floors the search above it.
func topConfig(cfg assocmine.Config, floor float64) assocmine.Config {
	cfg.Threshold = topStartThreshold
	if floor > cfg.Threshold {
		cfg.Threshold = floor
	}
	return cfg
}

func (s *Server) topK(ctx context.Context, ix *index, q TopKRequest) (any, *httpError) {
	floor := topFloor(q.Floor)
	plan, res, cfg, herr := s.plan(ctx, ix, floor, q.Algo, q.MemBudget)
	if herr != nil {
		return nil, herr
	}
	pairs, err := assocmine.TopColumnsWith(ix.data, res, q.Col, q.K, topConfig(cfg, floor), floor)
	if err != nil {
		return nil, queryFailure(err)
	}
	nbrs := make([]NeighborJSON, len(pairs))
	for i, p := range pairs {
		other := p.I
		if other == q.Col {
			other = p.J
		}
		nbrs[i] = NeighborJSON{Col: other, Estimate: p.Estimate, Similarity: p.Similarity}
	}
	return TopKResponse{Plan: plan, Col: q.Col, Neighbors: nbrs}, nil
}

func (s *Server) topPairs(ctx context.Context, ix *index, q TopPairsRequest) (any, *httpError) {
	floor := topFloor(q.Floor)
	plan, res, cfg, herr := s.plan(ctx, ix, floor, q.Algo, q.MemBudget)
	if herr != nil {
		return nil, herr
	}
	pairs, err := assocmine.TopPairsWith(ix.data, res, q.N, topConfig(cfg, floor), floor)
	if err != nil {
		return nil, queryFailure(err)
	}
	return PairsResponse{Plan: plan, Count: len(pairs), Pairs: toPairJSON(pairs)}, nil
}

func (s *Server) rules(ctx context.Context, ix *index, q RulesRequest) (any, *httpError) {
	res, err := assocmine.MineRulesWithSignatures(ix.data, ix.sig, assocmine.RuleConfig{
		MinConfidence: q.MinConfidence,
		Delta:         q.Delta,
		Seed:          s.opts.Seed,
		Context:       ctx,
	})
	if err != nil {
		return nil, queryFailure(err)
	}
	rules := make([]RuleJSON, len(res.Rules))
	for i, rr := range res.Rules {
		rules[i] = RuleJSON{From: rr.From, To: rr.To, Estimate: rr.Estimate, Confidence: rr.Confidence}
	}
	return RulesResponse{Count: len(rules), Rules: rules}, nil
}

// expr evaluates from the generation's sketches alone: it scans no data
// and takes no budget.
func (s *Server) expr(_ context.Context, ix *index, q ExprRequest) (any, *httpError) {
	cols := ix.expr.NumCols()
	var value float64
	switch q.Op {
	case "cardinality":
		e, err := ParseExpr(q.Expr, cols)
		if err != nil {
			return nil, badRequest(err)
		}
		if value, err = ix.expr.Cardinality(e); err != nil {
			// Parses that pass syntax can still break the evaluator's
			// structural rules (And nesting, fan-in) — the request's
			// fault, not the server's.
			return nil, badRequest(err)
		}
	case "similarity", "confidence":
		a, err := ParseExpr(q.A, cols)
		if err != nil {
			return nil, badRequest(err)
		}
		b, err := ParseExpr(q.B, cols)
		if err != nil {
			return nil, badRequest(err)
		}
		if q.Op == "similarity" {
			value, err = ix.expr.Similarity(a, b)
		} else {
			value, err = ix.expr.Confidence(a, b)
		}
		if err != nil {
			return nil, badRequest(err)
		}
	}
	return ExprResponse{Op: q.Op, Value: value}, nil
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) *httpError {
	n, err := s.Refresh()
	if err != nil {
		if errors.Is(err, ErrStaticIndex) {
			return &httpError{status: http.StatusConflict, msg: err.Error()}
		}
		return queryFailure(err)
	}
	ix := s.index()
	writeJSON(w, http.StatusOK, RefreshResponse{
		NewRows: n,
		Rows:    ix.data.NumRows(),
		Queries: s.queries.Load(),
	})
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	ix := s.index()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Rows:     ix.data.NumRows(),
		Cols:     ix.data.NumCols(),
		SigK:     ix.sig.K(),
		SketchK:  ix.sk.K(),
		Queries:  s.queries.Load(),
		Inflight: s.inflightN.Load(),
	})
}
