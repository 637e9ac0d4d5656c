package serve

import (
	"container/list"
	"encoding/json"
	"net/http"
	"sync"
)

// responseCache is a bounded LRU over rendered 200 responses to the
// read-only query endpoints. Entries are keyed by (index generation,
// endpoint, canonical request), where the generation is the *index
// pointer itself: a refresh swaps in a new pointer, so a stale entry
// can never match a post-refresh lookup — the explicit purge on
// refresh only releases the memory early. The canonical request is
// the decoded struct re-marshalled without what cannot change its
// answer (answerKey), so bodies that differ in field order, whitespace,
// number spelling or budgets share an entry.
type responseCache struct {
	// mu is the only lock: lookups mutate LRU order, so a read lock
	// would not do. The guarded work is a map probe and a list splice,
	// far below the cost of the queries being saved.
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
}

type cacheKey struct {
	gen      *index
	endpoint string
	body     string
}

type cacheEntry struct {
	key  cacheKey
	resp []byte
}

func newResponseCache(capacity int) *responseCache {
	return &responseCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

func (c *responseCache) get(k cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

func (c *responseCache) put(k cacheKey, resp []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).resp = resp
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, resp: resp})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

func (c *responseCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
}

func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// answerKey is the canonical form of a request: the fields its 200
// body depends on. A budget decides whether a query finishes, never
// what it answers (bit-identity under budgets is the library's
// invariant), and "auto" is the absent algo spelled out — so neither
// may split one question over several cache entries.
func answerKey(req request) ([]byte, error) {
	auto := func(algo string) string {
		if algo == "auto" {
			return ""
		}
		return algo
	}
	switch q := req.(type) {
	case pairsRequest:
		q.Algo, q.budgetFields = auto(q.Algo), budgetFields{}
		req = q
	case topKRequest:
		q.Algo, q.budgetFields = auto(q.Algo), budgetFields{}
		req = q
	case topPairsRequest:
		q.Algo, q.budgetFields = auto(q.Algo), budgetFields{}
		req = q
	case rulesRequest:
		q.timeoutField = timeoutField{}
		req = q
	}
	return json.Marshal(req)
}

// cacheCheck consults the response cache for a decoded, validated
// request. On a hit it writes the stored response and reports done.
// On a miss it returns the key the handler's eventual 200 should be
// stored under; a nil key means the response is uncacheable (caching
// disabled).
func (s *Server) cacheCheck(w http.ResponseWriter, ix *index, endpoint string, req request) (done bool, key *cacheKey) {
	if s.cache == nil {
		return false, nil
	}
	canon, err := answerKey(req)
	if err != nil {
		return false, nil
	}
	k := cacheKey{gen: ix, endpoint: endpoint, body: string(canon)}
	if resp, ok := s.cache.get(k); ok {
		s.coll.Add("cache_hits", 1)
		writeRawJSON(w, resp)
		return true, nil
	}
	s.coll.Add("cache_misses", 1)
	return false, &k
}

// writeCachedJSON renders v once, stores the bytes under key when
// cacheCheck returned one, and writes the 200. Marshal plus a newline
// produces exactly what writeJSON's Encoder emits, so cached and
// computed responses are byte-identical.
func (s *Server) writeCachedJSON(w http.ResponseWriter, key *cacheKey, v any) *httpError {
	buf, err := json.Marshal(v)
	if err != nil {
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	buf = append(buf, '\n')
	if key != nil {
		s.cache.put(*key, buf)
	}
	writeRawJSON(w, buf)
	return nil
}

func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
