package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// overloadInFlight caps the requests the open-loop client keeps
// outstanding; an arrival that finds the cap reached waits for a slot,
// and its latency still counts from its scheduled arrival.
const overloadInFlight = 256

// overloadSeconds is how long each load level sends arrivals, and how
// long the capacity probe runs.
const overloadSeconds = 2

// BenchmarkOverload is an open-loop load test of the resident service
// over a real HTTP listener: on the serve-refresh benchmark's shape
// (12 000 rows × 400 columns, the response cache off so every request
// does its work), it measures the server's capacity with a closed loop
// of GOMAXPROCS clients (after one warm-up request of each kind, which
// builds the resident indexes), then sends arrivals on a fixed schedule at 1×,
// 2× and 4× that rate — whatever the server's latency, so a slow server
// builds a queue instead of slowing the load. Each level reports the
// admitted requests' p50/p95 latency from their scheduled arrival, the
// share the server refused (429/503: the shed rate) and the goodput
// (answered requests a second). go test ./... runs no benchmark; run it
// with
//
//	go test ./internal/serve -run '^$' -bench Overload -benchtime 1x
func BenchmarkOverload(b *testing.B) {
	s, err := newServer(b, testDataset(b, 12000, 400), Options{CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: overloadInFlight}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Minute}

	// A mix of uncached work: pair queries over the planner's thresholds
	// and per-column top-k queries.
	var bodies []overloadRequest
	for i := 0; i < 40; i++ {
		bodies = append(bodies,
			overloadRequest{"/v1/pairs", fmt.Sprintf(`{"threshold":%.2f}`, 0.55+0.01*float64(i))},
			overloadRequest{"/v1/topk", fmt.Sprintf(`{"col":%d,"k":10,"floor":0.3}`, 7*i)})
	}
	send := func(i int) (status int, err error) {
		q := bodies[i%len(bodies)]
		resp, err := client.Post(ts.URL+q.path, "application/json", bytes.NewBufferString(q.body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}

	for i := range bodies {
		if status, err := send(i); err != nil || status != http.StatusOK {
			b.Fatalf("warm-up: status %d, %v", status, err)
		}
	}
	// Capacity: a closed loop, each client sending its next request as
	// soon as the last is answered.
	clients := runtime.GOMAXPROCS(0)
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Since(start) < overloadSeconds*time.Second; i += clients {
				if status, err := send(i); err != nil || status != http.StatusOK {
					b.Errorf("capacity probe: status %d, %v", status, err)
					return
				}
				answered.Add(1)
			}
		}(c)
	}
	wg.Wait()
	capacity := float64(answered.Load()) / time.Since(start).Seconds()

	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("load=%dx", mult), func(b *testing.B) {
			var r overloadResult
			for n := 0; n < b.N; n++ {
				r = openLoop(float64(mult)*capacity, send)
			}
			if r.errors > 0 {
				b.Errorf("%d requests failed in transport", r.errors)
			}
			b.ReportMetric(capacity, "capacity_rps")
			b.ReportMetric(float64(mult)*capacity, "offered_rps")
			b.ReportMetric(r.percentile(50), "p50_ms")
			b.ReportMetric(r.percentile(95), "p95_ms")
			b.ReportMetric(float64(r.shed)/float64(r.arrivals), "shed_ratio")
			b.ReportMetric(float64(len(r.admitted))/r.wall.Seconds(), "goodput_rps")
		})
	}
}

type overloadRequest struct{ path, body string }

// overloadResult is one open-loop level: the admitted requests'
// latencies, the refused and failed counts, and the wall time from the
// first arrival to the last answer.
type overloadResult struct {
	admitted               []time.Duration
	arrivals, shed, errors int
	wall                   time.Duration
}

// percentile returns the p-th percentile of the admitted latencies in
// milliseconds (nearest rank).
func (r overloadResult) percentile(p float64) float64 {
	if len(r.admitted) == 0 {
		return 0
	}
	lat := slices.Clone(r.admitted)
	slices.Sort(lat)
	rank := int(p/100*float64(len(lat))+0.5) - 1
	return float64(lat[max(0, min(rank, len(lat)-1))]) / float64(time.Millisecond)
}

// openLoop sends rate × overloadSeconds requests, the i-th scheduled at
// i/rate seconds, at most overloadInFlight outstanding.
func openLoop(rate float64, send func(int) (int, error)) overloadResult {
	var (
		mu  sync.Mutex
		r   = overloadResult{arrivals: int(rate * overloadSeconds)}
		wg  sync.WaitGroup
		sem = make(chan struct{}, overloadInFlight)
	)
	start := time.Now()
	for i := 0; i < r.arrivals; i++ {
		at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(at))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			status, err := send(i)
			lat := time.Since(at)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				r.errors++
			case status == http.StatusOK:
				r.admitted = append(r.admitted, lat)
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				r.shed++
			default:
				r.errors++
			}
		}(i)
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}
