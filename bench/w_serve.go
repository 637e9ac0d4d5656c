package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"assocmine"
	"assocmine/internal/serve"
)

// serveRefresh is reads beside writes on the resident service: two
// closed-loop clients drive Handler().ServeHTTP with a query mix whose
// parameters repeat Zipf-wise, so about a third of the requests hit the
// response cache and the rest spread over three latency classes (expr
// ≈ 10 µs, pairs ≈ ms, topk/toppairs/rules ≈ tens of ms). A fixed
// template mix would be all hits and measure nothing. At 40 % of the
// round client 0 swaps in a file with 1 % more rows and POSTs
// /v1/refresh while client 1 keeps querying: Ingest.CatchUp, a snapshot
// save and a cache purge — the incremental fold, not workload 1's batch
// fold.
type serveRefresh struct {
	rows, extra, cols, planted int
	perClient                  int

	gen            *synthGen
	truth          [2]map[uint64]float64 // by index generation: before and after the refresh
	fileA, fileB   string
	live, liveNext string
	snap, base     [2]string // live and set-up copies of the MH and K-MH ingest snapshots
	scripts        [2][]query
	srv            *serve.Server
}

func newServeRefresh(sz sizing) *serveRefresh {
	w := &serveRefresh{rows: 12_000, extra: 120, cols: 400, planted: 20, perClient: 150}
	if sz.tiny {
		w.rows, w.extra, w.cols, w.planted, w.perClient = 1500, 15, 80, 6, 20
	}
	return w
}

// query is one scripted request.
type query struct {
	kind      string // pairs, topk, toppairs, rules, expr, refresh
	body      []byte
	threshold float64 // pairs only
}

// request is one executed query of a round.
type request struct {
	client     int
	q          *query
	start, end time.Time
	status     int
	body       []byte
	gen        int  // index generation that answered: 0, 1, or -1 when it overlapped the refresh
	repeat     bool // the same query was answered earlier by this generation: a cache hit is expected
	bad        string
}

func (r *request) ms() float64 { return r.end.Sub(r.start).Seconds() * 1e3 }

func (w *serveRefresh) generate(dir string, seed uint64) (map[string]uint64, error) {
	sims := make([]float64, w.planted)
	for i := range sims {
		sims[i] = 0.35 + 0.60*float64(i)/float64(max(w.planted-1, 1))
	}
	w.gen = &synthGen{rows: w.rows, cols: w.cols, targets: sims, seed: seed}
	w.fileA = filepath.Join(dir, "served.arows")
	w.fileB = filepath.Join(dir, "served-next.arows")
	if err := saveARows(w.fileA, w.gen); err != nil {
		return nil, err
	}
	w.gen.rows = w.rows + w.extra
	if err := saveARows(w.fileB, w.gen); err != nil {
		return nil, err
	}
	w.truth = [2]map[uint64]float64{w.gen.sims(w.rows), w.gen.sims(0)}
	w.live = filepath.Join(dir, "live.arows")
	w.liveNext = filepath.Join(dir, "live-next.arows")
	for i, name := range []string{"mh", "kmh"} {
		w.snap[i] = filepath.Join(dir, "live-"+name+".ain")
		w.base[i] = filepath.Join(dir, "base-"+name+".ain")
	}
	w.script(seed)
	return map[string]uint64{"serve-refresh/served-next": uint64(w.gen.digest)}, nil
}

// script draws both clients' requests. Parameters come from pools by a
// Zipf draw, so queries repeat within and across the clients.
func (w *serveRefresh) script(seed uint64) {
	pool := rand.New(rand.NewSource(int64(seed) ^ 0x9001))
	cols := make([]int, 200)
	for i := range cols {
		cols[i] = pool.Intn(w.cols)
	}
	exprs := make([][]byte, 200)
	for i := range exprs {
		a, b, c := pool.Intn(w.cols), pool.Intn(w.cols), pool.Intn(w.cols)
		switch i % 3 {
		case 0:
			exprs[i] = jsonBody(map[string]any{"op": "similarity", "a": fmt.Sprintf("%d|%d", a, b), "b": fmt.Sprint(c)})
		case 1:
			exprs[i] = jsonBody(map[string]any{"op": "confidence", "a": fmt.Sprint(a), "b": fmt.Sprintf("%d|%d", b, c)})
		default:
			exprs[i] = jsonBody(map[string]any{"op": "cardinality", "expr": fmt.Sprintf("any(%d,%d,%d)", a, b, c)})
		}
	}
	for client := range w.scripts {
		rng := rand.New(rand.NewSource(int64(seed)*2 + int64(client) + 0x5c21))
		// Which pool slot each request takes is drawn from a fixed stream,
		// the same for every seed: the seed fills the pools and orders the
		// requests, but the number of repeats — cache hits — stays put.
		slots := rand.New(rand.NewSource(0x5107 + int64(client)))
		pick := func(n int) int { return int(rand.NewZipf(slots, 1.1, 16, uint64(n-1)).Uint64()) }
		// Each client sends exactly the same number of each kind in a
		// seeded order — 45 % pairs, 20 % topk, 10 % toppairs, 10 % rules,
		// 15 % expr — so a seed moves the parameters, not the mix.
		var kinds []string
		for _, k := range []struct {
			kind  string
			share int
		}{{"pairs", 45}, {"topk", 20}, {"toppairs", 10}, {"rules", 10}, {"expr", 15}} {
			for n := (w.perClient*k.share + 50) / 100; n > 0; n-- {
				kinds = append(kinds, k.kind)
			}
		}
		rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		qs := make([]query, len(kinds))
		for i, kind := range kinds {
			switch kind {
			case "pairs":
				// Popular thresholds are the high ones: the planner answers
				// a threshold of 0.58 or more five times faster than a lower
				// one, and p50_ms must sit well inside one of the two groups.
				thr := math.Round((0.90-0.005*float64(pick(121)))*1000) / 1000
				qs[i] = query{kind: kind, body: jsonBody(map[string]any{"threshold": thr}), threshold: thr}
			case "topk":
				qs[i] = query{kind: kind, body: jsonBody(map[string]any{"col": cols[pick(len(cols))], "k": 10, "floor": 0.3})}
			case "toppairs":
				qs[i] = query{kind: kind, body: jsonBody(map[string]any{"n": 5 * (1 + pick(20)), "floor": 0.3})}
			case "rules":
				qs[i] = query{kind: kind, body: jsonBody(map[string]any{"min_confidence": 0.60 + 0.01*float64(pick(30))})}
			default:
				qs[i] = query{kind: kind, body: exprs[pick(len(exprs))]}
			}
		}
		w.scripts[client] = qs
	}
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}

func (w *serveRefresh) open() (err error) {
	w.srv, err = serve.NewFromFile(w.live, serve.Options{Seed: sysSeed, SnapshotMH: w.snap[0], SnapshotKMH: w.snap[1]})
	return err
}

func (w *serveRefresh) shutdown() error {
	if w.srv == nil {
		return nil
	}
	srv := w.srv
	w.srv = nil
	return srv.Shutdown(context.Background())
}

// setup is a cold start (full fold of the file into both indexes, then
// snapshots saved) followed by a warm restart from those snapshots.
func (w *serveRefresh) setup(part func(string, func() error) error) error {
	if err := w.shutdown(); err != nil {
		return err
	}
	for _, p := range w.snap {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := copyFile(w.fileA, w.live); err != nil {
		return err
	}
	if err := part("serve.index_build_s", w.open); err != nil {
		return err
	}
	if err := w.shutdown(); err != nil {
		return err
	}
	if err := part("serve.restart_s", w.open); err != nil {
		return err
	}
	if err := w.shutdown(); err != nil {
		return err
	}
	for i := range w.snap {
		if err := copyFile(w.snap[i], w.base[i]); err != nil {
			return err
		}
	}
	return nil
}

// recorder is the smallest http.ResponseWriter that keeps the answer.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (w *serveRefresh) do(h http.Handler, client int, q *query) request {
	req, err := http.NewRequest(http.MethodPost, "/v1/"+q.kind, bytes.NewReader(q.body))
	if err != nil {
		return request{client: client, q: q, bad: err.Error()}
	}
	rec := &recorder{header: http.Header{}, status: http.StatusOK}
	out := request{client: client, q: q, start: time.Now()}
	h.ServeHTTP(rec, req)
	out.end = time.Now()
	out.status, out.body = rec.status, rec.body.Bytes()
	return out
}

func (w *serveRefresh) round() (*roundRec, error) { return w.runRound(nil) }

var refreshQuery = query{kind: "refresh"}

// runRound restores the served file and the snapshots to their set-up
// state and restarts the service (untimed), then runs both scripts
// against it. With a tracer every request gets a span.
func (w *serveRefresh) runRound(tr *tracer) (*roundRec, error) {
	if err := w.shutdown(); err != nil {
		return nil, err
	}
	if err := copyFile(w.fileA, w.live); err != nil {
		return nil, err
	}
	if err := copyFile(w.fileB, w.liveNext); err != nil {
		return nil, err
	}
	for i := range w.snap {
		if err := copyFile(w.base[i], w.snap[i]); err != nil {
			return nil, err
		}
	}
	if err := w.open(); err != nil {
		return nil, err
	}
	h := w.srv.Handler()
	refreshAt := len(w.scripts[0]) * 2 / 5
	var out [2][]request
	var swapErr error
	var wg sync.WaitGroup
	t := time.Now()
	for client := range w.scripts {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			root := -1
			if tr != nil {
				root = tr.open(-1, fmt.Sprintf("client-%d", client))
				defer tr.close(root)
			}
			send := func(q *query) {
				id := -1
				if tr != nil {
					id = tr.open(root, "serve."+q.kind)
				}
				out[client] = append(out[client], w.do(h, client, q))
				if tr != nil {
					tr.close(id)
				}
			}
			for i := range w.scripts[client] {
				if client == 0 && i == refreshAt {
					if swapErr = os.Rename(w.liveNext, w.live); swapErr != nil {
						return
					}
					send(&refreshQuery)
				}
				send(&w.scripts[client][i])
			}
		}(client)
	}
	wg.Wait()
	r := &roundRec{wall: time.Since(t).Seconds()}
	if swapErr != nil {
		return nil, swapErr
	}
	r.cacheHits = w.srv.Collector().Counter("cache_hits")
	r.cacheMisses = w.srv.Collector().Counter("cache_misses")
	r.reqs = append(out[0], out[1]...)
	w.annotate(r.reqs)
	return r, w.shutdown()
}

// refreshOf returns the round's refresh request.
func refreshOf(reqs []request) *request {
	for i := range reqs {
		if reqs[i].q.kind == "refresh" {
			return &reqs[i]
		}
	}
	return nil
}

// annotate works out, after the clock has stopped, which index
// generation answered each request and which requests repeat an earlier
// one on the same generation.
func (w *serveRefresh) annotate(reqs []request) {
	refresh := refreshOf(reqs)
	for i := range reqs {
		r := &reqs[i]
		switch {
		case refresh == nil || !r.end.After(refresh.start):
			r.gen = 0
		case !r.start.Before(refresh.end):
			r.gen = 1
		default:
			r.gen = -1
		}
	}
	order := make([]*request, len(reqs))
	for i := range reqs {
		order[i] = &reqs[i]
	}
	sort.Slice(order, func(a, b int) bool { return order[a].end.Before(order[b].end) })
	type key struct {
		gen        int
		kind, body string
	}
	answered := map[key]time.Time{}
	for _, r := range order {
		if r.gen < 0 || r.q.kind == "refresh" {
			continue
		}
		k := key{r.gen, r.q.kind, string(r.q.body)}
		if done, ok := answered[k]; ok {
			r.repeat = !done.After(r.start)
		} else {
			answered[k] = r.end
		}
	}
}

// answer is the part of every response shape the checks read.
type answer struct {
	Pairs []struct {
		I, J       int
		Similarity float64
	}
	Neighbors []struct {
		Col        int
		Similarity float64
	}
	Rules   []struct{ Confidence float64 }
	Value   *float64
	NewRows *int `json:"new_rows"`
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// check applies the request checks: HTTP 200 with decodable JSON of the
// endpoint's shape; every returned pair reaches its threshold and a
// planted pair carries the generator's own exact similarity for the
// generation that answered; a request ordered with the refresh answers
// byte for byte as in the warm-up round. Recall is counted on client 0,
// whose requests are ordered with the refresh and so deterministic.
func (w *serveRefresh) check(r, warm *roundRec, t *tally) {
	for i := range r.reqs {
		q := &r.reqs[i]
		t.attempted++
		if q.bad == "" {
			q.bad = w.judge(q, t)
		}
		if q.bad == "" && warm != nil && i < len(warm.reqs) {
			if ref := &warm.reqs[i]; q.gen >= 0 && ref.gen == q.gen && q.q.kind != "refresh" && bodyHash(ref.body) != bodyHash(q.body) {
				q.bad = "answer differs from the warm-up round's"
			}
		}
		if q.bad != "" {
			t.fail("client %d %s %s: %s", q.client, q.q.kind, q.q.body, q.bad)
		}
	}
}

func (w *serveRefresh) judge(q *request, t *tally) string {
	if q.status != http.StatusOK {
		return fmt.Sprintf("HTTP %d: %s", q.status, bytes.TrimSpace(q.body))
	}
	var a answer
	if err := json.Unmarshal(q.body, &a); err != nil {
		return "undecodable JSON: " + err.Error()
	}
	switch q.q.kind {
	case "refresh":
		if a.NewRows == nil || *a.NewRows != w.extra {
			return fmt.Sprintf("refresh folded %v new rows, want %d", a.NewRows, w.extra)
		}
	case "expr":
		if a.Value == nil || math.IsNaN(*a.Value) {
			return "no value"
		}
	case "pairs":
		found := map[int]int{}
		for _, p := range a.Pairs {
			if p.Similarity < q.q.threshold {
				return fmt.Sprintf("pair (%d,%d) similarity %v below threshold", p.I, p.J, p.Similarity)
			}
			matched := false
			_, planted := w.truth[0][pairKey(p.I, p.J)]
			for g, truth := range w.truth {
				if exact, ok := truth[pairKey(p.I, p.J)]; ok && (q.gen == g || q.gen < 0) && math.Abs(exact-p.Similarity) <= 1e-12 {
					matched = true
					found[g]++
				}
			}
			if planted && !matched {
				return fmt.Sprintf("planted pair (%d,%d) similarity %v is not the exact count", p.I, p.J, p.Similarity)
			}
		}
		if q.client == 0 {
			for _, s := range w.truth[q.gen] {
				if s >= q.q.threshold {
					t.truthAll++
				}
			}
			t.truthHit += found[q.gen]
		}
	}
	return ""
}

func (w *serveRefresh) traced(tr *tracer, m *metrics, rounds []*roundRec) error {
	// The traced round is the same script with a span around every
	// request; the difference to the untraced median is the overhead.
	r, err := w.runRound(tr)
	if err != nil {
		return err
	}
	tl := &tally{}
	w.check(r, rounds[0], tl)
	if tl.failed > 0 {
		return fmt.Errorf("traced round failed its checks: %s", tl.why[0])
	}
	m.set("bench.trace_overhead_ratio", ratio(r.wall-m.vals["bench.wall_raw_s"], m.vals["bench.wall_raw_s"]))

	// Latency classes, pooled over the timed rounds.
	by := map[string][]float64{}
	var hits, misses, bytesOut float64
	for _, r := range rounds {
		hits, misses = hits+float64(r.cacheHits), misses+float64(r.cacheMisses)
		refresh := refreshOf(r.reqs)
		for i := range r.reqs {
			q := &r.reqs[i]
			bytesOut += float64(len(q.body))
			if q.q.kind == "refresh" {
				by["refresh"] = append(by["refresh"], q.ms())
				continue
			}
			by["all"] = append(by["all"], q.ms())
			if q.repeat {
				by["hit"] = append(by["hit"], q.ms())
			} else {
				by[q.q.kind] = append(by[q.q.kind], q.ms())
			}
			if refresh != nil && q.end.After(refresh.start) && q.start.Before(refresh.end) {
				by["during"] = append(by["during"], q.ms())
			}
		}
	}
	m.set("serve.requests", float64(len(by["all"])))
	m.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("serve.hit_p50_ms", percentile(by["hit"], 50))
	m.set("serve.pairs_p50_ms", percentile(by["pairs"], 50))
	m.set("serve.pairs_p99_ms", percentile(by["pairs"], 99))
	m.set("serve.topk_p50_ms", percentile(by["topk"], 50))
	m.set("serve.toppairs_p50_ms", percentile(by["toppairs"], 50))
	m.set("serve.rules_p50_ms", percentile(by["rules"], 50))
	m.set("serve.expr_p50_ms", percentile(by["expr"], 50))
	m.set("serve.refresh_p50_ms", percentile(by["refresh"], 50))
	m.set("serve.refresh_max_ms", percentile(by["refresh"], 100))
	m.set("serve.query_p99_during_refresh_ms", percentile(by["during"], 99))
	m.set("serve.resp_bytes_per_req", ratio(bytesOut, float64(len(by["all"])+len(by["refresh"]))))

	// The refresh by hand, through the root package's Ingest: load both
	// snapshots, catch up on the grown file, save them again.
	var ings [2]*assocmine.Ingest
	loadS, err := tr.run(-1, "assocmine.LoadIngest", func() (err error) {
		for i := range ings {
			if ings[i], err = assocmine.LoadIngest(w.base[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fd, err := assocmine.OpenFileDataset(w.fileB)
	if err != nil {
		return err
	}
	folded := 0
	catchS, err := tr.run(-1, "Ingest.CatchUp", func() error {
		for _, in := range ings {
			n, err := in.CatchUp(fd, 1)
			if err != nil {
				return err
			}
			folded += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	var snapBytes int64
	saveS, err := tr.run(-1, "Ingest.Save", func() error {
		for i, in := range ings {
			if err := in.Save(w.snap[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range w.snap {
		if st, err := os.Stat(p); err == nil {
			snapBytes += st.Size()
		}
	}
	m.set("incr.load_s", loadS)
	m.set("incr.catchup_s", catchS)
	m.set("incr.catchup_us_per_row", ratio(catchS*1e6, float64(folded)))
	m.set("incr.snapshot_save_s", saveS)
	m.set("incr.snapshot_bytes", float64(snapBytes))
	return nil
}

func (w *serveRefresh) close() {
	_ = w.shutdown() // the run is over: a drain error has no one left to hear it
}
