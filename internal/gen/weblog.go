package gen

import (
	"fmt"
	"math"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// WebLogConfig models the paper's Sun Microsystems web-server log
// (Section 5): rows are client IPs, columns are URLs, an entry is 1
// when the client fetched the URL. The paper explains its similar pairs
// as "URLs corresponding to gif images or Java applets which are loaded
// automatically when a client IP accesses a parent URL" — the generator
// reproduces exactly that mechanism: parent pages deterministically
// co-fetch their embedded resources (minus a cache-miss rate), page
// popularity is Zipf-distributed, and overall densities are far below
// 1 percent, so the similarity histogram is L-shaped like Fig. 3.
type WebLogConfig struct {
	Clients int // rows
	URLs    int // columns
	Seed    uint64
}

// The web log's fixed shape: max(URLs/20, 1) parent pages embed
// 2-5 resources each (uniformly), a client makes Poisson(webMeanVisits)
// page visits drawn Zipf(webZipfS), and a parent visit fetches each
// embedded resource unless the browser cache has it (webCacheMissRate
// is the probability it is NOT fetched), which keeps resource pair
// similarities below 1.
const (
	webMinResources  = 2
	webMaxResources  = 5
	webZipfS         = 1.1
	webMeanVisits    = 8
	webCacheMissRate = 0.05
)

// WebLog holds a generated web-log dataset: the matrix plus the
// embedded-resource groups (each group's columns are mutually
// high-similarity by construction) and the parent page of each group.
type WebLog struct {
	Matrix *matrix.Matrix
	// Groups lists, per parent page, the column indices of its
	// embedded resources.
	Groups [][]int32
	// Parents lists the parent page column of each group.
	Parents []int32
}

// GenerateWebLog builds the web-log dataset.
func GenerateWebLog(cfg WebLogConfig) (*WebLog, error) {
	if cfg.Clients <= 0 || cfg.URLs <= 0 {
		return nil, fmt.Errorf("gen: clients and URLs must be positive, got %dx%d", cfg.Clients, cfg.URLs)
	}
	parentPages := max(cfg.URLs/20, 1)
	if parentPages*(webMaxResources+1) > cfg.URLs {
		return nil, fmt.Errorf("gen: %d parent pages with up to %d resources need more than %d URLs",
			parentPages, webMaxResources, cfg.URLs)
	}
	rng := hashing.NewSplitMix64(cfg.Seed)

	// Column layout: parents first, then their resources, then
	// standalone pages.
	next := 0
	parents := make([]int32, parentPages)
	groups := make([][]int32, parentPages)
	for p := 0; p < parentPages; p++ {
		parents[p] = int32(next)
		next++
		nres := webMinResources + rng.Intn(webMaxResources-webMinResources+1)
		for r := 0; r < nres && next < cfg.URLs; r++ {
			groups[p] = append(groups[p], int32(next))
			next++
		}
	}
	standaloneStart := next

	// Visitable pages: parents + standalones (resources are only
	// fetched via their parent). Zipf weights over visitable pages,
	// shuffled so popularity is independent of the column layout.
	visitable := make([]int32, 0, parentPages+(cfg.URLs-standaloneStart))
	visitable = append(visitable, parents...)
	for c := standaloneStart; c < cfg.URLs; c++ {
		visitable = append(visitable, int32(c))
	}
	perm := rng.Perm(len(visitable))
	cum := make([]float64, len(visitable))
	total := 0.0
	for i := range visitable {
		total += 1 / math.Pow(float64(perm[i]+1), webZipfS)
		cum[i] = total
	}

	groupOf := make(map[int32]int, parentPages)
	for p, parent := range parents {
		groupOf[parent] = p
	}

	b := matrix.NewBuilder(cfg.Clients, cfg.URLs)
	for client := 0; client < cfg.Clients; client++ {
		visits := poisson(rng, webMeanVisits)
		for v := 0; v < visits; v++ {
			page := visitable[searchCum(cum, rng.Float64()*total)]
			b.Set(client, int(page))
			if g, ok := groupOf[page]; ok {
				for _, res := range groups[g] {
					if rng.Float64() >= webCacheMissRate {
						b.Set(client, int(res))
					}
				}
			}
		}
	}
	return &WebLog{Matrix: b.Build(), Groups: groups, Parents: parents}, nil
}

// poisson samples a Poisson(lambda) variate (Knuth's method; fine for
// the small lambdas used here).
func poisson(rng *hashing.SplitMix64, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // guard against pathological lambda
		}
	}
}

// searchCum returns the first index with cum[i] >= target.
func searchCum(cum []float64, target float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
