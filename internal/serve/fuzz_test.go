package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"assocmine"
)

// fuzzServer is built once per fuzz target and process (each fuzz
// worker is its own process), not per input; its file lives in f's
// temporary directory, which outlasts every input.
func fuzzServer(f *testing.F) *Server {
	d, err := assocmine.NewDatasetFromRows(16, testRows(120, 16))
	if err != nil {
		f.Fatal(err)
	}
	s, err := newServer(f, d, Options{SigK: 40, SketchK: 32})
	if err != nil {
		f.Fatal(err)
	}
	return s
}

var fuzzPaths = []string{
	"/v1/pairs", "/v1/topk", "/v1/toppairs", "/v1/rules", "/v1/expr", "/v1/refresh",
}

// FuzzHTTPQuery throws arbitrary bytes at every endpoint's full decode
// + validate + execute path. The contract under hostile input: never
// panic, never hang, and answer malformed requests with a 4xx — the
// only non-4xx statuses allowed are 200 (the input happened to be a
// valid query) and the budget statuses 504/408 (the input set a tiny
// timeout_ms on a real query).
func FuzzHTTPQuery(f *testing.F) {
	seeds := []string{
		`{"threshold":0.7}`,
		`{"threshold":0.7,"algo":"mlsh","timeout_ms":1000,"mem_budget":65536}`,
		`{"col":3,"k":5,"floor":0.2}`,
		`{"n":10,"floor":0.5,"algo":"kmh"}`,
		`{"min_confidence":0.9,"delta":0.2}`,
		`{"op":"cardinality","expr":"all(3, any(4, 5))"}`,
		`{"op":"similarity","a":"0|1","b":"2"}`,
		`{"op":"confidence","a":"col(0)","b":"1"}`,
		`{}`,
		`{"threshold":1e999}`,
		`{"threshold":0.7,"unknown":"field"}`,
		`{"op":"cardinality","expr":"((((((0))))))"}`,
		"not json at all",
		`[1,2,3]`,
		`{"threshold":0.7}{"threshold":0.8}`,
	}
	for _, s := range seeds {
		for sel := range fuzzPaths {
			f.Add([]byte(s), byte(sel))
		}
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte, sel byte) {
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
		s.Handler().ServeHTTP(rr, req)
		switch {
		case rr.Code == http.StatusOK,
			rr.Code >= 400 && rr.Code < 500,
			rr.Code == http.StatusGatewayTimeout:
		default:
			t.Fatalf("%s: status %d for body %q: %s", path, rr.Code, body, rr.Body.String())
		}
	})
}

// FuzzParseExpr drives the expression parser, and every successfully
// parsed expression on through the evaluator: hostile strings must
// produce errors, never panics or unbounded work.
func FuzzParseExpr(f *testing.F) {
	seeds := []string{
		"3", "col(3)", "3|4&5", "any(1, all(2, 3))", "((0))",
		"all(0,1,2,3,4,5,6,7,8,9,10,11,12,13)",
		strings.Repeat("(", 80) + "1" + strings.Repeat(")", 80),
		"9999999999", "col(", "a&b", "|||",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	ev := fuzzServer(f).index().expr
	f.Fuzz(func(t *testing.T, src string) {
		e, err := parseExpr(src, 16)
		if err != nil {
			return
		}
		// Evaluation may reject (structural rules) but must not panic.
		_, _ = ev.Cardinality(e)
	})
}
