package driver

import (
	"errors"
	"sync"
	"testing"
	"time"

	"assocmine/internal/obs"
)

// TestMemoLifetime is the memo's contract, under -race: concurrent
// first queries build once, a failed build keeps nothing, one slot
// holds the last value ok accepted or build made, and a value over the
// limit is neither built nor kept.
func TestMemoLifetime(t *testing.T) {
	type val struct{ key int }
	var m Memo[*val]
	coll := obs.NewCollector()
	var builds int
	get := func(size int64, key int) (*val, error) {
		return m.get(coll, size, func(v *val) bool { return v.key == key }, func() (*val, error) {
			builds++ // under the memo's lock
			time.Sleep(time.Millisecond)
			return &val{key}, nil
		})
	}
	if v, err := (*Memo[*val])(nil).get(coll, 1, nil, nil); v != nil || err != nil {
		t.Fatalf("nil memo: %v, %v", v, err)
	}
	boom := errors.New("boom")
	if v, err := m.get(coll, 1, nil, func() (*val, error) { return nil, boom }); v != nil || err != boom || m.Kept != nil {
		t.Fatalf("failed build: %v, %v, kept %v", v, err, m.Kept)
	}
	var wg sync.WaitGroup
	got := make([]*val, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = get(10, 1)
		}()
	}
	wg.Wait()
	for _, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("concurrent first gets returned %v and %v", v, got[0])
		}
	}
	if builds != 1 || coll.Counter(obs.CounterIndexBuilds) != 1 || coll.Gauge(obs.GaugeIndexBytes) != 10 {
		t.Fatalf("%d builds, index_builds %d, index_bytes %d", builds, coll.Counter(obs.CounterIndexBuilds), coll.Gauge(obs.GaugeIndexBytes))
	}
	if v, _ := get(10, 2); v == nil || v.key != 2 || m.Kept != v || builds != 2 {
		t.Fatalf("another key: %v, kept %v after %d builds", v, m.Kept, builds)
	}
	m.Limit = 16
	if v, _ := get(17, 3); v != nil || m.Kept.key != 2 || builds != 2 {
		t.Fatalf("over the limit: %v, kept %v after %d builds", v, m.Kept, builds)
	}
	if v, _ := get(16, 3); v == nil || v.key != 3 || builds != 3 {
		t.Fatalf("at the limit: %v after %d builds", v, builds)
	}
}
