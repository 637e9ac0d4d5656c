package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assocmine/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the golden response files from current output")

// goldenServer builds a resident server over the committed 300x40
// dataset (the same file cmd/assocfind's goldens use) with a fixed
// seed, so every response body is fully deterministic.
func goldenServer(t *testing.T, workers int) *serve.Server {
	t.Helper()
	s, err := serve.NewFromFile(filepath.Join("testdata", "golden.txt"), serve.Options{SigK: 80, SketchK: 64, Seed: 3, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldenHTTP locks the HTTP responses for a set of committed
// request files: testdata/req_<name>.json in, testdata/resp_<name>.golden
// out. Responses carry no timing or run-dependent fields, so the
// bodies are compared byte-for-byte — and the workers=4 server must
// answer bit-identically to the workers=1 server, which is why a
// single golden covers both. Regenerate with:
//
//	go test ./cmd/assocserve -run TestGoldenHTTP -update
func TestGoldenHTTP(t *testing.T) {
	cases := []struct {
		name       string
		method     string
		path       string
		reqFile    bool
		wantStatus int
	}{
		// healthz reports the query counter, so it runs first while both
		// servers are fresh — the golden stays valid under -run filtering.
		{"healthz", http.MethodGet, "/healthz", false, http.StatusOK},
		{"pairs_mlsh", http.MethodPost, "/v1/pairs", true, http.StatusOK},
		{"pairs_kmh", http.MethodPost, "/v1/pairs", true, http.StatusOK},
		{"pairs_mh", http.MethodPost, "/v1/pairs", true, http.StatusOK},
		{"topk", http.MethodPost, "/v1/topk", true, http.StatusOK},
		{"toppairs", http.MethodPost, "/v1/toppairs", true, http.StatusOK},
		{"rules", http.MethodPost, "/v1/rules", true, http.StatusOK},
		{"expr_sim", http.MethodPost, "/v1/expr", true, http.StatusOK},
		{"expr_card", http.MethodPost, "/v1/expr", true, http.StatusOK},
		{"bad_threshold", http.MethodPost, "/v1/pairs", true, http.StatusBadRequest},
		// bps has no resident index (it samples raw rows per run), so the
		// planner must reject it cleanly rather than fall back.
		{"pairs_bps", http.MethodPost, "/v1/pairs", true, http.StatusBadRequest},
	}

	serial := goldenServer(t, 1)
	parallel := goldenServer(t, 4)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body string
			if tc.reqFile {
				raw, err := os.ReadFile(filepath.Join("testdata", "req_"+tc.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				body = string(raw)
			}
			do := func(s *serve.Server) *httptest.ResponseRecorder {
				rr := httptest.NewRecorder()
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(body))
				s.Handler().ServeHTTP(rr, req)
				return rr
			}
			got := do(serial)
			if got.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", got.Code, tc.wantStatus, got.Body.String())
			}
			if par := do(parallel); par.Body.String() != got.Body.String() {
				t.Fatalf("workers=4 response differs from workers=1:\n--- w1 ---\n%s\n--- w4 ---\n%s",
					got.Body.String(), par.Body.String())
			}

			golden := filepath.Join("testdata", "resp_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got.Body.String() != string(want) {
				t.Errorf("response differs from %s:\n%s", golden, diffLines(string(want), got.Body.String()))
			}
		})
	}
}

func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&sb, "line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
	}
	return sb.String()
}
