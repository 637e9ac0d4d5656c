package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"assocmine"
	"assocmine/internal/obs"
)

func TestResponseCacheLRU(t *testing.T) {
	c := newResponseCache(2)
	gen := &index{}
	key := func(i int) cacheKey {
		return cacheKey{gen: gen, endpoint: "pairs", body: fmt.Sprintf("{%d}", i)}
	}
	c.put(key(1), []byte("one"))
	c.put(key(2), []byte("two"))
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	// 1 was just used, so inserting 3 must evict 2.
	c.put(key(3), []byte("three"))
	if _, ok := c.get(key(2)); ok {
		t.Fatal("entry 2 survived eviction")
	}
	if v, ok := c.get(key(1)); !ok || string(v) != "one" {
		t.Fatalf("entry 1: %q, %v", v, ok)
	}
	// Re-putting an existing key updates in place, no eviction.
	c.put(key(1), []byte("uno"))
	if v, _ := c.get(key(1)); string(v) != "uno" {
		t.Fatalf("entry 1 not updated: %q", v)
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	c.purge()
	if c.len() != 0 {
		t.Fatalf("len %d after purge", c.len())
	}
	if _, ok := c.get(key(1)); ok {
		t.Fatal("entry survived purge")
	}
	// Keys from another generation never collide.
	c.put(key(1), []byte("one"))
	other := cacheKey{gen: &index{}, endpoint: "pairs", body: "{1}"}
	if _, ok := c.get(other); ok {
		t.Fatal("cross-generation hit")
	}
}

func counters(s *Server) (hits, misses int64) {
	return s.Collector().Counter("cache_hits"), s.Collector().Counter("cache_misses")
}

// TestCacheHitsAcrossEquivalentBodies locks the canonicalisation: the
// same logical request, spelled differently on the wire, must be one
// cache entry, and the cached bytes must equal the computed bytes.
func TestCacheHitsAcrossEquivalentBodies(t *testing.T) {
	s := mustServer(t, testDataset(t, 200, 24))
	bodies := []string{
		`{"threshold":0.7}`,
		`{ "threshold" : 0.70 }`,
		`{"threshold":7e-1}`,
	}
	var first []byte
	for i, body := range bodies {
		rr := recordPost(s.Handler(), "/v1/pairs", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if i == 0 {
			first = rr.Body.Bytes()
		} else if !bytes.Equal(rr.Body.Bytes(), first) {
			t.Fatalf("body %d: cached response differs:\n got %s\nwant %s", i, rr.Body.Bytes(), first)
		}
	}
	hits, misses := counters(s)
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	// A different request is its own entry.
	if rr := recordPost(s.Handler(), "/v1/pairs", `{"threshold":0.8}`); rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	hits, misses = counters(s)
	if hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d after distinct request, want 2/2", hits, misses)
	}
}

// TestCacheKeyIgnoresBudgets: a budget decides whether a query
// finishes, not what it answers, and "auto" is the absent algo — the
// same question with or without them is one entry: one miss, then hits
// with the first answer's bytes.
func TestCacheKeyIgnoresBudgets(t *testing.T) {
	s := mustServer(t, testDataset(t, 200, 24))
	var asked int64
	for path, bodies := range map[string][]string{
		"/v1/pairs":    {`{"threshold":0.7}`, `{"threshold":0.7,"timeout_ms":5000}`, `{"threshold":0.7,"mem_budget":1048576}`, `{"threshold":0.7,"algo":"auto","timeout_ms":9,"mem_budget":4096}`},
		"/v1/topk":     {`{"col":2,"k":5}`, `{"col":2,"k":5,"algo":"auto"}`, `{"col":2,"k":5,"timeout_ms":5000,"mem_budget":1048576}`},
		"/v1/toppairs": {`{"n":4,"floor":0.6,"mem_budget":1048576}`, `{"n":4,"floor":0.6}`, `{"n":4,"floor":0.6,"algo":"auto","timeout_ms":5000}`},
		"/v1/rules":    {`{"min_confidence":0.9,"timeout_ms":5000}`, `{"min_confidence":0.9}`},
	} {
		var first []byte
		for i, body := range bodies {
			rr := recordPost(s.Handler(), path, body)
			if rr.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", path, body, rr.Code, rr.Body.String())
			}
			if i == 0 {
				first = rr.Body.Bytes()
			} else if !bytes.Equal(rr.Body.Bytes(), first) {
				t.Fatalf("%s %s: answer differs from the first spelling's:\n got %s\nwant %s", path, body, rr.Body.Bytes(), first)
			}
		}
		asked++
		if hits, misses := counters(s); misses != asked {
			t.Fatalf("%s: hits=%d misses=%d after %d questions, want one miss each", path, hits, misses, asked)
		}
	}
	// A forced algo is part of the question.
	recordPost(s.Handler(), "/v1/pairs", `{"threshold":0.7,"algo":"mh"}`)
	if _, misses := counters(s); misses != asked+1 {
		t.Fatalf("misses=%d: a forced plan shared the planner's entry", misses)
	}
}

// TestCacheCoversReadOnlyEndpoints repeats one request per cacheable
// endpoint and expects exactly one miss then one hit for each.
func TestCacheCoversReadOnlyEndpoints(t *testing.T) {
	s := mustServer(t, testDataset(t, 200, 24))
	reqs := []struct{ path, body string }{
		{"/v1/pairs", `{"threshold":0.7}`},
		{"/v1/topk", `{"col":2,"k":5}`},
		{"/v1/toppairs", `{"n":4,"floor":0.6}`},
		{"/v1/rules", `{"min_confidence":0.9}`},
		{"/v1/expr", `{"op":"cardinality","expr":"0|1"}`},
	}
	for _, q := range reqs {
		a := recordPost(s.Handler(), q.path, q.body)
		b := recordPost(s.Handler(), q.path, q.body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: status %d/%d", q.path, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("%s: cached response differs", q.path)
		}
	}
	hits, misses := counters(s)
	if hits != int64(len(reqs)) || misses != int64(len(reqs)) {
		t.Fatalf("hits=%d misses=%d, want %d/%d", hits, misses, len(reqs), len(reqs))
	}
}

func TestCacheDisabled(t *testing.T) {
	s, err := newServer(t, testDataset(t, 100, 16), Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rr := recordPost(s.Handler(), "/v1/pairs", `{"threshold":0.7}`); rr.Code != http.StatusOK {
			t.Fatalf("status %d", rr.Code)
		}
	}
	hits, misses := counters(s)
	if hits != 0 || misses != 0 {
		t.Fatalf("hits=%d misses=%d with cache disabled", hits, misses)
	}
}

// refreshableServer builds a file-backed server over the first 300
// rows of the 400-row test dataset, returning the path and the full
// row set so tests can grow the file.
func refreshableServer(t *testing.T, opts Options) (*Server, string, [][]int) {
	t.Helper()
	const cols = 24
	rows := testRows(400, cols)
	path := filepath.Join(t.TempDir(), "data.txt")
	prefix, err := assocmine.NewDatasetFromRows(cols, rows[:300])
	if err != nil {
		t.Fatal(err)
	}
	if err := prefix.Save(path); err != nil {
		t.Fatal(err)
	}
	s, err := NewFromFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, path, rows
}

func growFile(t *testing.T, path string, rows [][]int, cols int) {
	t.Helper()
	full, err := assocmine.NewDatasetFromRows(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInvalidatedOnRefresh: a refresh that folds new rows swaps
// the index generation, so the same request recomputes (a miss) and
// reflects the grown dataset.
func TestCacheInvalidatedOnRefresh(t *testing.T) {
	s, path, rows := refreshableServer(t, Options{})
	const body = `{"threshold":0.7}`
	a := recordPost(s.Handler(), "/v1/pairs", body)
	b := recordPost(s.Handler(), "/v1/pairs", body)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d/%d", a.Code, b.Code)
	}
	if hits, misses := counters(s); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d before refresh", hits, misses)
	}
	if s.cache.len() == 0 {
		t.Fatal("nothing cached")
	}
	growFile(t, path, rows, 24)
	if rr := recordPost(s.Handler(), "/v1/refresh", `{}`); rr.Code != http.StatusOK {
		t.Fatalf("refresh: %d: %s", rr.Code, rr.Body.String())
	}
	if s.cache.len() != 0 {
		t.Fatalf("%d entries survived refresh", s.cache.len())
	}
	c := recordPost(s.Handler(), "/v1/pairs", body)
	if c.Code != http.StatusOK {
		t.Fatalf("status %d", c.Code)
	}
	if hits, misses := counters(s); hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d after refresh, want 1/2", hits, misses)
	}
	// The post-refresh answer must match a fresh server over the full
	// data — i.e. the cache did not serve the stale generation.
	cols := 24
	full, err := assocmine.NewDatasetFromRows(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := recordPost(mustServer(t, full).Handler(), "/v1/pairs", body)
	if !bytes.Equal(c.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("post-refresh response differs from fresh server:\n got %s\nwant %s",
			c.Body.Bytes(), want.Body.Bytes())
	}
}

// TestGenerationBuildsOnFirstQuery: what a generation keeps beside its
// sketches belongs to the queries that need it. A start and a refresh
// build nothing; the first banding and the first counting query of each
// generation build once each and its first rules query twice (the MH
// run index and §6's table), later ones add no build, and the new
// generation starts from nothing — the old one's structures went with
// its sketches.
func TestGenerationBuildsOnFirstQuery(t *testing.T) {
	s, path, rows := refreshableServer(t, Options{CacheSize: -1})
	builds := func() int64 { return s.Collector().Counter(obs.CounterIndexBuilds) }
	ask := func() {
		t.Helper()
		for path, body := range map[string]string{
			"/v1/pairs":    `{"threshold":0.8}`,      // mlsh-probe: the band buckets
			"/v1/toppairs": `{"n":3,"floor":0.7}`,    // the same layout again
			"/v1/topk":     `{"col":1,"k":3}`,        // kmh-scan: the run index
			"/v1/rules":    `{"min_confidence":0.8}`, // the MH run index and the table
		} {
			for range 2 {
				if rr := recordPost(s.Handler(), path, body); rr.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, rr.Code, rr.Body.String())
				}
			}
		}
	}
	if got := builds(); got != 0 {
		t.Fatalf("%d index builds at start", got)
	}
	ask()
	if got := builds(); got != 4 {
		t.Fatalf("%d index builds in the first generation, want the buckets, both run indexes and the table", got)
	}
	growFile(t, path, rows, 24)
	if n, err := s.refresh(); err != nil || n == 0 {
		t.Fatalf("refresh folded %d rows: %v", n, err)
	}
	if got := builds(); got != 4 {
		t.Fatalf("%d index builds after a refresh nobody has queried", got)
	}
	ask()
	if got := builds(); got != 8 {
		t.Fatalf("%d index builds over two generations, want 8", got)
	}
}

// TestRefreshInterval: the self-refresh poller notices the backing
// file growing and folds the rows in without any /v1/refresh call;
// Shutdown stops the poller cleanly.
func TestRefreshInterval(t *testing.T) {
	s, path, rows := refreshableServer(t, Options{RefreshInterval: 10 * time.Millisecond})
	t.Cleanup(func() { s.stopRefresher() })
	if s.refreshStop == nil {
		t.Fatal("refresher not started")
	}
	growFile(t, path, rows, 24)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rows := s.index().data.NumRows(); rows == 400 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("poller never refreshed; rows still %d", rows)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stopRefresher()
	select {
	case <-s.refreshDone:
	default:
		t.Fatal("refresher still running after stop")
	}
}
