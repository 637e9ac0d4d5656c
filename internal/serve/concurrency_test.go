package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"assocmine"
	"assocmine/internal/obs"
	"assocmine/internal/testutil"
)

// TestConcurrentQueriesBitIdentical is the headline concurrency test:
// 32 client goroutines hammer a real HTTP listener with a mix of every
// query type, and every single response must be byte-identical to the
// direct single-threaded library computation. Run under -race this
// also proves the resident indexes are shared safely. The goroutine
// leak check covers the listener, the connection pool and the drain
// path.
func TestConcurrentQueriesBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := mustServer(t, testDataset(t, 400, 48))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cases := libraryCases(t, s)

	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	t.Cleanup(tr.CloseIdleConnections)

	const workers = 32
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := cases[(w+i)%len(cases)]
				resp, err := client.Post("http://"+addr.String()+c.path, "application/json", strings.NewReader(c.body))
				if err != nil {
					errc <- fmt.Errorf("%s: %w", c.name, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("%s: reading body: %w", c.name, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d: %s", c.name, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, c.want) {
					errc <- fmt.Errorf("%s: concurrent response differs from library:\n got %s\nwant %s", c.name, body, c.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if got := s.Queries(); got != workers*iters {
		t.Errorf("query counter %d, want %d", got, workers*iters)
	}
	if got := s.Inflight(); got != 0 {
		t.Errorf("%d queries still in flight after all clients returned", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Post-shutdown queries are refused, not hung.
	rr := recordPost(s.Handler(), "/v1/pairs", `{"threshold":0.7}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", rr.Code)
	}
}

// TestThousandConcurrentInflight holds 1000 queries in flight
// simultaneously — deterministically, via the query gate — and then
// releases them all at once. Every response must still be
// byte-identical to the library answer, the in-flight gauge must hit
// exactly 1000, and nothing may leak.
func TestThousandConcurrentInflight(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := mustServer(t, testDataset(t, 200, 32))

	ix := s.index()
	plan, err := choosePlan(0.7, ix.info(), "")
	if err != nil {
		t.Fatal(err)
	}
	sketch, cfg := plan.resolve(ix, assocmine.Config{Seed: s.opts.Seed, Workers: 1, Threshold: 0.7})
	res, err := assocmine.SimilarPairsWith(ix.data, sketch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mustBody(t, PairsResponse{Plan: plan, Count: len(res.Pairs), Pairs: toPairJSON(res.Pairs)})

	release := make(chan struct{})
	s.queryGate = func(string) { <-release }

	const n = 1000
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/pairs", strings.NewReader(`{"threshold":0.7}`))
			s.Handler().ServeHTTP(rr, req)
			recs[i] = rr
		}(i)
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.Inflight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries in flight", s.Inflight(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Inflight(); got != n {
		t.Fatalf("in-flight gauge %d, want exactly %d", got, n)
	}
	close(release)
	wg.Wait()

	for i, rr := range recs {
		if rr.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("query %d: response differs from library answer", i)
		}
	}
	if got := s.Queries(); got != n {
		t.Errorf("query counter %d, want %d", got, n)
	}
	if got := s.Inflight(); got != 0 {
		t.Errorf("%d queries still in flight", got)
	}
}

// TestShutdownDrains holds one query in the gate, starts Shutdown, and
// checks the ordering guarantees: shutdown blocks until the query
// completes, new queries get 503 while draining, and the held query
// still gets its full, correct answer.
func TestShutdownDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := mustServer(t, testDataset(t, 100, 16))
	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	// Only the first query blocks in the gate (a CAS, not a sync.Once —
	// Once would hold its mutex while blocked and deadlock any query
	// that races in behind it).
	s.queryGate = func(string) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}

	var held *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		held = recordPost(s.Handler(), "/v1/pairs", `{"threshold":0.7}`)
	}()
	<-entered

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()

	// Draining must refuse new queries while the held one is in flight.
	refusedDeadline := time.Now().Add(5 * time.Second)
	for {
		rr := recordPost(s.Handler(), "/v1/pairs", `{"threshold":0.7}`)
		if rr.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatalf("draining server still accepting queries (status %d)", rr.Code)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shut:
		t.Fatalf("shutdown returned (%v) with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	<-done
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if held.Code != http.StatusOK {
		t.Fatalf("held query status %d: %s", held.Code, held.Body.String())
	}
	// /healthz reports draining after shutdown.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d after shutdown, want 503", rr.Code)
	}
}

// TestRefreshUnderConcurrentQueries exercises the hot-refresh path: a
// file-backed server keeps answering queries while the backing file
// grows and /v1/refresh folds the new rows in. After the refresh, the
// server's answers must be byte-identical to a fresh server built over
// the full dataset (the ingest catch-up path is bit-identical to batch
// computation).
func TestRefreshUnderConcurrentQueries(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.txt")
	const cols = 32
	rows := testRows(500, cols)

	prefix, err := assocmine.NewDatasetFromRows(cols, rows[:400])
	if err != nil {
		t.Fatal(err)
	}
	if err := prefix.Save(path); err != nil {
		t.Fatal(err)
	}
	s, err := NewFromFile(path, Options{
		SnapshotMH:  filepath.Join(dir, "mh.ain"),
		SnapshotKMH: filepath.Join(dir, "kmh.ain"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.index().data.NumRows(); got != 400 {
		t.Fatalf("initial rows %d, want 400", got)
	}

	full, err := assocmine.NewDatasetFromRows(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	// The serial answers of each generation, from servers queried by
	// nobody else: every endpoint and plan kind.
	fresh := mustServer(t, full)
	before, after := libraryCases(t, mustServer(t, prefix)), libraryCases(t, fresh)

	// 16 goroutines fire the first queries of the fresh generation at
	// once: every body is the serial answer, and each sketch built each
	// structure it keeps once — two run indexes and the band buckets (the
	// rules run has no recorder, so its triangle is not on /metrics).
	fire := func(check func(i int, got []byte)) {
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range before {
					i := (n + w) % len(before)
					rr := recordPost(s.Handler(), before[i].path, before[i].body)
					if rr.Code != http.StatusOK {
						t.Errorf("%s: status %d: %s", before[i].name, rr.Code, rr.Body.String())
						return
					}
					check(i, rr.Body.Bytes())
				}
			}()
		}
		wg.Wait()
	}
	fire(func(i int, got []byte) {
		if !bytes.Equal(got, before[i].want) {
			t.Errorf("%s: concurrent first query differs from the serial answer:\n got %s\nwant %s", before[i].name, got, before[i].want)
		}
	})
	if got := s.Collector().Counter(obs.CounterIndexBuilds); got != 3 {
		t.Fatalf("%d index builds in the first generation, want one per kept structure", got)
	}

	// Background queriers run across the refresh: each answer is one
	// generation's serial answer, whichever the query grabbed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fire(func(i int, got []byte) {
				if !bytes.Equal(got, before[i].want) && !bytes.Equal(got, after[i].want) {
					t.Errorf("%s during refresh: neither generation's answer: %s", before[i].name, got)
				}
			})
		}
	}()

	if err := full.Save(path); err != nil {
		t.Fatal(err)
	}
	rr := recordPost(s.Handler(), "/v1/refresh", `{}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("refresh: status %d: %s", rr.Code, rr.Body.String())
	}
	var ref RefreshResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	if ref.NewRows != 100 || ref.Rows != 500 {
		t.Fatalf("refresh folded %d rows to %d total, want 100 to 500", ref.NewRows, ref.Rows)
	}
	close(stop)
	wg.Wait()

	// A second refresh with nothing new is a no-op.
	rr = recordPost(s.Handler(), "/v1/refresh", `{}`)
	var ref2 RefreshResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ref2); err != nil {
		t.Fatal(err)
	}
	if ref2.NewRows != 0 {
		t.Fatalf("idle refresh folded %d rows, want 0", ref2.NewRows)
	}

	// The refreshed server answers exactly like a fresh one, and its new
	// generation built one index per sketch, however many queries met it
	// first.
	for _, qc := range after {
		if got := recordPost(s.Handler(), qc.path, qc.body); !bytes.Equal(got.Body.Bytes(), qc.want) {
			t.Fatalf("%s after refresh:\n got %s\nwant %s", qc.name, got.Body.Bytes(), qc.want)
		}
	}
	if got := s.Collector().Counter(obs.CounterIndexBuilds); got != 6 {
		t.Fatalf("%d index builds over two generations, want one per kept structure per generation", got)
	}
	for _, body := range []string{
		`{"threshold":0.7}`,
		`{"threshold":0.3}`,
	} {
		got := recordPost(s.Handler(), "/v1/pairs", body)
		want := recordPost(fresh.Handler(), "/v1/pairs", body)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("status %d / %d for %s", got.Code, want.Code, body)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("refreshed server diverges from fresh server for %s:\n got %s\nwant %s",
				body, got.Body.Bytes(), want.Body.Bytes())
		}
	}

	// A restart resuming the snapshots folds nothing and answers the same.
	resumed, err := NewFromFile(path, Options{
		SnapshotMH:  filepath.Join(dir, "mh.ain"),
		SnapshotKMH: filepath.Join(dir, "kmh.ain"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := recordPost(resumed.Handler(), "/v1/pairs", `{"threshold":0.7}`)
	want := recordPost(fresh.Handler(), "/v1/pairs", `{"threshold":0.7}`)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("snapshot-resumed server diverges from fresh server")
	}
}
