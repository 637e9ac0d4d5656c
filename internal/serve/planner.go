// Package serve is the resident similarity service: it keeps a
// dataset's min-hash signatures and bottom-k sketches warm in memory
// (the paper's §1 design point — the signature index is O(mk) and
// memory-resident by design) and answers concurrent HTTP/JSON queries
// from them, so a query pays only the in-memory candidate phase plus
// one verification pass instead of a full CLI recomputation.
package serve

import (
	"fmt"

	"assocmine"
	"assocmine/internal/lsh"
)

// Plan kinds — which resident index a query runs against and how.
const (
	// planMLSHProbe answers from the min-hash signatures via M-LSH
	// banding (§4.1): hash each column's bands into buckets and probe
	// collisions. Cheapest when the threshold is high enough that the
	// banding catches true pairs reliably.
	planMLSHProbe = "mlsh-probe"
	// planKMHScan answers from the bottom-k sketches via the K-MH
	// hash-count scan (§3.2): merge-count sketch values across columns.
	// Works at any threshold and attaches unbiased estimates, at the
	// cost of touching every sketch.
	planKMHScan = "kmh-scan"
	// planMHSort answers from the min-hash signatures via Row-Sorting
	// (§3.1) — the signature scan a request gets by forcing algo "mh".
	planMHSort = "mh-sort"
)

// bandR is the band size the planner lays over resident signatures.
// R=5 is the paper's §4.1 working point: s^5 separates high from low
// similarity sharply while leaving K/5 bands for sensitivity.
const bandR = 5

// minDetect is the banding detection probability below which the
// planner refuses M-LSH: a probe that misses more than 10% of true
// pairs at the query threshold is not a serving-quality plan.
const minDetect = 0.9

// queryPlan is one query's execution choice, reported back to the client.
type queryPlan struct {
	// Kind is "mlsh-probe", "kmh-scan" or "mh-sort".
	Kind string `json:"kind"`
	// R and L are the banding layout of an mlsh-probe plan (zero
	// otherwise).
	R int `json:"r,omitempty"`
	L int `json:"l,omitempty"`
	// Reason is the one-line heuristic justification.
	Reason string `json:"reason"`
}

// resolve turns the plan into what executes it: the resident sketch
// that answers and base carrying the plan's algorithm and layout — the
// one place a plan kind names a sketch.
func (p queryPlan) resolve(ix *index, base assocmine.Config) (assocmine.Resident, assocmine.Config) {
	switch p.Kind {
	case planKMHScan:
		base.Algorithm = assocmine.KMinHash
		return ix.sk, base
	case planMLSHProbe:
		base.Algorithm, base.R, base.L = assocmine.MinLSH, p.R, p.L
		return ix.sig, base
	default:
		base.Algorithm = assocmine.MinHash
		return ix.sig, base
	}
}

// choosePlan picks the resident index for a pair-style query at the
// given effective threshold (for top-k queries, the search floor —
// the lowest threshold the descending search may reach) over a server
// whose signatures are sigK wide; every server holds both indexes. The
// rule, documented in docs/ALGORITHMS.md:
//
//  1. M-LSH bucket probing when the signatures hold one band (K >= R)
//     and the banding (R=5, L=K/5) detects a pair at the threshold with
//     probability >= 0.9 — the fast path for high thresholds.
//  2. Otherwise the K-MH sketch scan — reliable at any threshold, with
//     unbiased estimates.
//
// The choice is a pure function of (threshold, sigK), so identical
// queries always run identical plans. Forcing mlsh over signatures
// narrower than one band is the request's error.
func choosePlan(threshold float64, sigK int, force string) (queryPlan, error) {
	switch force {
	case "", "auto":
	case "mlsh":
		if sigK < bandR {
			return queryPlan{}, fmt.Errorf("algo \"mlsh\" needs signatures of at least %d values for one band, the server keeps %d", bandR, sigK)
		}
		r, l := bandLayout(sigK)
		return queryPlan{Kind: planMLSHProbe, R: r, L: l, Reason: "forced by request"}, nil
	case "kmh":
		return queryPlan{Kind: planKMHScan, Reason: "forced by request"}, nil
	case "mh":
		return queryPlan{Kind: planMHSort, Reason: "forced by request"}, nil
	case "bps":
		// Biased pair sampling re-draws from the raw rows on every run;
		// there is no resident index to answer from, so it is a batch
		// algorithm only.
		return queryPlan{}, fmt.Errorf("algo %q samples raw rows and has no resident index; use assocfind -algo bps", force)
	default:
		return queryPlan{}, fmt.Errorf("unknown algo %q (want auto, mlsh, kmh or mh)", force)
	}
	if sigK < bandR {
		return queryPlan{
			Kind:   planKMHScan,
			Reason: fmt.Sprintf("signatures of %d values hold no band of %d rows; sketch scan is exact-recall", sigK, bandR),
		}, nil
	}
	r, l := bandLayout(sigK)
	if det := lsh.ProbAtLeastOnce(threshold, r, l); det >= minDetect {
		return queryPlan{
			Kind: planMLSHProbe, R: r, L: l,
			Reason: fmt.Sprintf("banding detects s>=%.2f pairs with p=%.3f", threshold, det),
		}, nil
	}
	return queryPlan{
		Kind:   planKMHScan,
		Reason: fmt.Sprintf("threshold %.2f below banding reliability; sketch scan is exact-recall", threshold),
	}, nil
}

// bandLayout derives the M-LSH banding from a resident signature size:
// R=5 rows per band, every complete band used.
func bandLayout(sigK int) (r, l int) {
	r = bandR
	l = sigK / r
	if l < 1 {
		l = 1
	}
	return r, l
}
