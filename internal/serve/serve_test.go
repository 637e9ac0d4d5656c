package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"assocmine"
	"assocmine/internal/obs"
)

// testRows generates a deterministic sparse dataset with correlated
// column pairs (2t, 2t+1) across a spread of similarities, so pair,
// top-k, rule and expression queries all have non-trivial answers.
func testRows(rows, cols int) [][]int {
	rng := rand.New(rand.NewSource(42))
	data := make([][]int, rows)
	for r := range data {
		var row []int
		for c := 0; c+1 < cols; c += 2 {
			p := 0.03 + 0.05*float64(c%7)/7
			if rng.Float64() < p {
				row = append(row, c)
				if rng.Float64() < float64((c/2)%11)/10 {
					row = append(row, c+1)
				}
			} else if rng.Float64() < 0.008 {
				row = append(row, c+1)
			}
		}
		data[r] = row
	}
	return data
}

func testDataset(tb testing.TB, rows, cols int) *assocmine.Dataset {
	tb.Helper()
	d, err := assocmine.NewDatasetFromRows(cols, testRows(rows, cols))
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// newServer saves data as a row-binary file in a temporary directory
// and serves it through NewFromFile, the one way a server is built.
func newServer(tb testing.TB, data *assocmine.Dataset, opts Options) (*Server, error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "data.arows")
	if err := data.Save(path); err != nil {
		return nil, err
	}
	return NewFromFile(path, opts)
}

func mustServer(tb testing.TB, d *assocmine.Dataset) *Server {
	tb.Helper()
	s, err := newServer(tb, d, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// mustBody marshals v exactly as writeJSON does (Encoder appends '\n'),
// so expected bodies compare bit-for-bit against server responses.
func mustBody(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recordPost drives the handler directly (no sockets) and returns the
// recorded response.
func recordPost(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	h.ServeHTTP(rr, req)
	return rr
}

// queryCase pairs a request with the response the library computes for
// it directly, bypassing the HTTP layer entirely.
type queryCase struct {
	name string
	path string
	body string
	want []byte
}

func mustPlan(tb testing.TB, threshold float64, ix *index, force string) queryPlan {
	tb.Helper()
	plan, err := choosePlan(threshold, ix.sig.K(), force)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// libraryCases computes, via direct single-threaded library calls, the
// exact responses the server must produce for a fixed set of queries
// covering every endpoint and plan kind.
func libraryCases(tb testing.TB, s *Server) []queryCase {
	tb.Helper()
	ix := s.index()
	base := assocmine.Config{Seed: s.opts.Seed, Workers: 1}
	var cases []queryCase

	addPairs := func(name string, threshold float64, force string) {
		plan := mustPlan(tb, threshold, ix, force)
		cfg := base
		cfg.Threshold = threshold
		sketch, cfg := plan.resolve(ix, cfg)
		res, err := assocmine.SimilarPairsWith(ix.data, sketch, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		body := `{"threshold":` + jsonNum(threshold) + forceField(force) + `}`
		cases = append(cases, queryCase{
			name: name, path: "/v1/pairs", body: body,
			want: mustBody(tb, pairsResponse{Plan: plan, Count: len(res.Pairs), Pairs: toPairJSON(res.Pairs)}),
		})
	}
	addPairs("pairs-mlsh", 0.75, "")
	addPairs("pairs-kmh", 0.3, "")
	addPairs("pairs-mh", 0.3, "mh")

	// topk via the default plan (floor 0.05 -> sketch scan).
	{
		const col, k = 2, 5
		plan := mustPlan(tb, defaultTopFloor, ix, "")
		cfg := topConfig(base, defaultTopFloor)
		pairs, err := assocmine.TopColumnsWith(ix.data, ix.sk, col, k, cfg, defaultTopFloor)
		if err != nil {
			tb.Fatal(err)
		}
		nbrs := make([]neighborJSON, len(pairs))
		for i, p := range pairs {
			other := p.I
			if other == col {
				other = p.J
			}
			nbrs[i] = neighborJSON{Col: other, Estimate: p.Estimate, Similarity: p.Similarity}
		}
		cases = append(cases, queryCase{
			name: "topk-kmh", path: "/v1/topk", body: `{"col":2,"k":5}`,
			want: mustBody(tb, topKResponse{Plan: plan, Col: col, Neighbors: nbrs}),
		})
	}

	// toppairs with a floor high enough for banding (mlsh plan).
	{
		const n = 4
		const floor = 0.6
		plan := mustPlan(tb, floor, ix, "")
		sketch, cfg := plan.resolve(ix, topConfig(base, floor))
		pairs, err := assocmine.TopPairsWith(ix.data, sketch, n, cfg, floor)
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, queryCase{
			name: "toppairs-mlsh", path: "/v1/toppairs", body: `{"n":4,"floor":0.6}`,
			want: mustBody(tb, pairsResponse{Plan: plan, Count: len(pairs), Pairs: toPairJSON(pairs)}),
		})
	}

	// rules straight from the resident signatures.
	{
		res, err := assocmine.SimilarPairsWith(ix.data, ix.sig, assocmine.Config{
			Algorithm: assocmine.Rules, Threshold: 0.9, Seed: s.opts.Seed,
		})
		if err != nil {
			tb.Fatal(err)
		}
		rules := make([]ruleJSON, len(res.Pairs))
		for i, p := range res.Pairs {
			rules[i] = ruleJSON{From: p.I, To: p.J, Estimate: p.Estimate, Confidence: p.Similarity}
		}
		cases = append(cases, queryCase{
			name: "rules", path: "/v1/rules", body: `{"min_confidence":0.9}`,
			want: mustBody(tb, rulesResponse{Count: len(rules), Rules: rules}),
		})
	}

	// boolean-composition queries from the resident sketches.
	addExpr := func(name, body string, compute func() (float64, error), op string) {
		v, err := compute()
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, queryCase{
			name: name, path: "/v1/expr", body: body,
			want: mustBody(tb, exprResponse{Op: op, Value: v}),
		})
	}
	addExpr("expr-card", `{"op":"cardinality","expr":"0|1"}`, func() (float64, error) {
		return ix.expr.Cardinality(assocmine.AnyOf(assocmine.Col(0), assocmine.Col(1)))
	}, "cardinality")
	addExpr("expr-sim", `{"op":"similarity","a":"0","b":"1"}`, func() (float64, error) {
		return ix.expr.Similarity(assocmine.Col(0), assocmine.Col(1))
	}, "similarity")
	addExpr("expr-conf", `{"op":"confidence","a":"any(0,2)","b":"1"}`, func() (float64, error) {
		return ix.expr.Confidence(assocmine.AnyOf(assocmine.Col(0), assocmine.Col(2)), assocmine.Col(1))
	}, "confidence")

	return cases
}

func jsonNum(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func forceField(force string) string {
	if force == "" {
		return ""
	}
	return `,"algo":"` + force + `"`
}

// TestServerMatchesLibrary checks every endpoint serially: the HTTP
// response must be byte-identical to the direct library computation.
func TestServerMatchesLibrary(t *testing.T) {
	s := mustServer(t, testDataset(t, 400, 48))
	for _, c := range libraryCases(t, s) {
		t.Run(c.name, func(t *testing.T) {
			rr := recordPost(s.Handler(), c.path, c.body)
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
			}
			if !bytes.Equal(rr.Body.Bytes(), c.want) {
				t.Fatalf("response differs from library:\n got %s\nwant %s", rr.Body.Bytes(), c.want)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	s := mustServer(t, testDataset(t, 100, 16))
	h := s.Handler()
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"unknown-field", "/v1/pairs", `{"threshold":0.7,"bogus":1}`, http.StatusBadRequest},
		{"trailing-data", "/v1/pairs", `{"threshold":0.7} {}`, http.StatusBadRequest},
		{"bad-threshold", "/v1/pairs", `{"threshold":1.5}`, http.StatusBadRequest},
		{"zero-threshold", "/v1/pairs", `{"threshold":0}`, http.StatusBadRequest},
		{"bad-algo", "/v1/pairs", `{"threshold":0.7,"algo":"quantum"}`, http.StatusBadRequest},
		{"col-range", "/v1/topk", `{"col":16,"k":5}`, http.StatusBadRequest},
		{"neg-col", "/v1/topk", `{"col":-1,"k":5}`, http.StatusBadRequest},
		{"huge-k", "/v1/topk", `{"col":0,"k":100000}`, http.StatusBadRequest},
		{"bad-n", "/v1/toppairs", `{"n":0}`, http.StatusBadRequest},
		{"bad-conf", "/v1/rules", `{"min_confidence":0}`, http.StatusBadRequest},
		{"bad-op", "/v1/expr", `{"op":"entropy","expr":"1"}`, http.StatusBadRequest},
		{"expr-col-range", "/v1/expr", `{"op":"cardinality","expr":"99"}`, http.StatusBadRequest},
		{"expr-syntax", "/v1/expr", `{"op":"cardinality","expr":"1&&2"}`, http.StatusBadRequest},
		{"expr-mixed-args", "/v1/expr", `{"op":"cardinality","expr":"1","a":"2"}`, http.StatusBadRequest},
		{"neg-timeout", "/v1/pairs", `{"threshold":0.7,"timeout_ms":-1}`, http.StatusBadRequest},
		{"rules-neg-timeout", "/v1/rules", `{"min_confidence":0.9,"timeout_ms":-1}`, http.StatusBadRequest},
		// A request type carries only the budgets its endpoint honours;
		// the others are unknown fields.
		{"rules-mem-budget", "/v1/rules", `{"min_confidence":0.9,"mem_budget":1024}`, http.StatusBadRequest},
		{"expr-timeout", "/v1/expr", `{"op":"cardinality","expr":"1","timeout_ms":1000}`, http.StatusBadRequest},
		{"expr-mem-budget", "/v1/expr", `{"op":"cardinality","expr":"1","mem_budget":1024}`, http.StatusBadRequest},
		{"not-json", "/v1/pairs", `threshold=0.7`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rr := recordPost(h, c.path, c.body)
			if rr.Code != c.status {
				t.Fatalf("status %d, want %d: %s", rr.Code, c.status, rr.Body.String())
			}
			var e errorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not an errorResponse: %s", rr.Body.String())
			}
		})
	}
	t.Run("rules-timeout-accepted", func(t *testing.T) {
		if rr := recordPost(h, "/v1/rules", `{"min_confidence":0.9,"timeout_ms":60000}`); rr.Code != http.StatusOK {
			t.Fatalf("status %d, want 200: %s", rr.Code, rr.Body.String())
		}
	})
	t.Run("get-not-allowed", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/pairs", nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", rr.Code)
		}
	})
	t.Run("oversized-body", func(t *testing.T) {
		rr := recordPost(h, "/v1/pairs", `{"threshold":0.7,"algo":"`+strings.Repeat("x", 2<<20)+`"}`)
		if rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", rr.Code)
		}
	})
}

// TestNarrowSignatures: a server whose signatures are narrower than one
// band answers a high-threshold pairs query from the sketches, as a
// forced kmh query does, and refuses a forced mlsh one with a 400 that
// names the sketch size.
func TestNarrowSignatures(t *testing.T) {
	s, err := newServer(t, testDataset(t, 100, 16), Options{SigK: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rr := recordPost(h, "/v1/pairs", `{"threshold":0.99}`)
	want := recordPost(h, "/v1/pairs", `{"threshold":0.99,"algo":"kmh"}`)
	if rr.Code != http.StatusOK || want.Code != http.StatusOK {
		t.Fatalf("status %d (forced kmh %d): %s", rr.Code, want.Code, rr.Body.String())
	}
	var got, forced pairsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want.Body.Bytes(), &forced); err != nil {
		t.Fatal(err)
	}
	if got.Plan.Kind != planKMHScan || !reflect.DeepEqual(got.Pairs, forced.Pairs) {
		t.Errorf("plan %+v, %d pairs; forced kmh %d pairs", got.Plan, len(got.Pairs), len(forced.Pairs))
	}
	rr = recordPost(h, "/v1/pairs", `{"threshold":0.99,"algo":"mlsh"}`)
	var e errorResponse
	if rr.Code != http.StatusBadRequest || json.Unmarshal(rr.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "keeps 3") {
		t.Errorf("forced mlsh: status %d: %s", rr.Code, rr.Body.String())
	}
}

func TestHealthz(t *testing.T) {
	s := mustServer(t, testDataset(t, 100, 16))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Rows != 100 || h.Cols != 16 || h.SigK != 200 || h.SketchK != 256 {
		t.Fatalf("unexpected health: %+v", h)
	}
}

// TestQueryBudgets checks that an exhausted time budget surfaces as
// 504 and a canceled client as 408, by handing the handler a request
// whose context is already dead — deterministic, no sleeps.
func TestQueryBudgets(t *testing.T) {
	s := mustServer(t, testDataset(t, 100, 16))
	post := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/pairs", strings.NewReader(`{"threshold":0.7}`))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req.WithContext(ctx))
		return rr
	}
	t.Run("deadline-exceeded", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if rr := post(ctx); rr.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504: %s", rr.Code, rr.Body.String())
		}
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if rr := post(ctx); rr.Code != http.StatusRequestTimeout {
			t.Fatalf("status %d, want 408: %s", rr.Code, rr.Body.String())
		}
	})
	// §6's first rules query — the MH run index, its scan and the count
	// of the pairs agreeing twice — honours the budget too: it stops,
	// keeps nothing, and the next query builds and answers.
	t.Run("rules", func(t *testing.T) {
		const body = `{"min_confidence":0.9}`
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/rules", strings.NewReader(body))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req.WithContext(ctx))
		if rr.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504: %s", rr.Code, rr.Body.String())
		}
		want := recordPost(mustServer(t, testDataset(t, 100, 16)).Handler(), "/v1/rules", body)
		if got := recordPost(s.Handler(), "/v1/rules", body); got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("rules after a dead first query: status %d: %s", got.Code, got.Body.String())
		}
	})
	// A dead first query of a generation builds no index and leaves none
	// half-built: it fails the same way, and the next query builds and
	// answers. The rules queries above built the MH run index and §6's
	// table already, so the dead queries are the first of the band
	// buckets and the K-MH run index.
	t.Run("first-query", func(t *testing.T) {
		builds := s.Collector().Counter(obs.CounterIndexBuilds)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for path, body := range map[string]string{
			"/v1/pairs": `{"threshold":0.3}`,
			"/v1/topk":  `{"col":2,"k":5}`,
		} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, req.WithContext(ctx))
			if rr.Code != http.StatusRequestTimeout {
				t.Fatalf("%s: status %d, want 408: %s", path, rr.Code, rr.Body.String())
			}
			if got := s.Collector().Counter(obs.CounterIndexBuilds) - builds; got != 0 {
				t.Fatalf("%s: %d index builds under a dead context", path, got)
			}
		}
		for _, qc := range libraryCases(t, mustServer(t, testDataset(t, 100, 16))) {
			if rr := recordPost(s.Handler(), qc.path, qc.body); rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), qc.want) {
				t.Fatalf("%s after a dead first query: status %d: %s", qc.name, rr.Code, rr.Body.String())
			}
		}
		if got := s.Collector().Counter(obs.CounterIndexBuilds) - builds; got != 3 {
			t.Fatalf("%d index builds, want the K-MH run index, its counts and the band buckets", got)
		}
	})
}

// TestPairsHonoursMemBudget: a /v1/pairs request's mem_budget reaches
// the verification pass — a budget below the counter table spills
// (visible in the server's spill_runs counter) and the response is
// byte-identical to the unbudgeted one.
func TestPairsHonoursMemBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(t, testDataset(t, 2000, 200), Options{SpillDir: dir, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) []byte {
		t.Helper()
		rr := recordPost(s.Handler(), "/v1/pairs", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
		return rr.Body.Bytes()
	}
	free := post(`{"threshold":0.1,"algo":"mh"}`)
	if n := s.Collector().Counter(obs.CounterSpillRuns); n != 0 {
		t.Fatalf("unbudgeted query spilled %d runs", n)
	}
	tight := post(`{"threshold":0.1,"algo":"mh","mem_budget":1024}`)
	if s.Collector().Counter(obs.CounterSpillRuns) == 0 {
		t.Error("mem_budget 1024 spilled nothing: the budget did not reach the verification pass")
	}
	if !bytes.Equal(tight, free) {
		t.Errorf("budgeted response differs from unbudgeted:\n got %s\nwant %s", tight, free)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d spill files left in %s", len(left), dir)
	}
}

// TestRulesRunsUnderQueryConfig: a /v1/rules request runs under the
// server's query config like every other scanning endpoint — its exact
// pass advances the Collector's pipeline counters, and the server's
// MemoryBudget and SpillDir reach it (a budget below its counter table
// spills) without changing a byte of the response.
func TestRulesRunsUnderQueryConfig(t *testing.T) {
	data := testDataset(t, 2000, 200)
	const body = `{"min_confidence":0.3}`
	post := func(s *Server) []byte {
		t.Helper()
		rr := recordPost(s.Handler(), "/v1/rules", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
		return rr.Body.Bytes()
	}
	free, err := newServer(t, data, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	col := free.Collector()
	verified, passes := col.Counter(obs.CounterPairsVerified), col.Counter(obs.CounterDataPasses)
	want := post(free)
	if col.Counter(obs.CounterPairsVerified) <= verified || col.Counter(obs.CounterDataPasses) != passes+1 {
		t.Errorf("one rules request moved pairs_verified %d -> %d and data_passes %d -> %d; want a rise and one pass",
			verified, col.Counter(obs.CounterPairsVerified), passes, col.Counter(obs.CounterDataPasses))
	}

	dir := t.TempDir()
	tight, err := newServer(t, data, Options{CacheSize: -1, MemoryBudget: 1024, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := post(tight); !bytes.Equal(got, want) {
		t.Errorf("budgeted rules response differs from unbudgeted:\n got %s\nwant %s", got, want)
	}
	if tight.Collector().Counter(obs.CounterSpillRuns) == 0 {
		t.Error("MemoryBudget 1024 spilled nothing: the budget did not reach the rules pass")
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d spill files left in %s", len(left), dir)
	}
}
