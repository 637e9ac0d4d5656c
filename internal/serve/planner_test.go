package serve

import (
	"math"
	"testing"
)

func TestBandDetect(t *testing.T) {
	// 1-(1-s^r)^l against hand-computed values.
	cases := []struct {
		s    float64
		r, l int
		want float64
	}{
		{0.9, 5, 40, 1 - math.Pow(1-math.Pow(0.9, 5), 40)},
		{0.5, 5, 40, 1 - math.Pow(1-math.Pow(0.5, 5), 40)},
		{1.0, 5, 1, 1},
		{0.0, 5, 40, 0},
	}
	for _, c := range cases {
		if got := bandDetect(c.s, c.r, c.l); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("bandDetect(%v,%d,%d) = %v, want %v", c.s, c.r, c.l, got, c.want)
		}
	}
	// Monotone in s.
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.05 {
		d := bandDetect(s, 5, 40)
		if d < prev {
			t.Fatalf("bandDetect not monotone at s=%v", s)
		}
		prev = d
	}
}

func TestChoosePlan(t *testing.T) {
	both := indexInfo{haveSig: true, sigK: 200, haveSk: true}
	sigOnly := indexInfo{haveSig: true, sigK: 200}
	skOnly := indexInfo{haveSk: true}

	cases := []struct {
		name      string
		threshold float64
		idx       indexInfo
		force     string
		wantKind  string
		wantErr   bool
	}{
		{"high-threshold-probes", 0.8, both, "", planMLSHProbe, false},
		{"low-threshold-scans", 0.2, both, "", planKMHScan, false},
		{"low-threshold-no-sketch", 0.2, sigOnly, "", planMHSort, false},
		{"high-threshold-sketch-only", 0.8, skOnly, "", planKMHScan, false},
		{"auto-alias", 0.8, both, "auto", planMLSHProbe, false},
		{"force-mlsh", 0.2, both, "mlsh", planMLSHProbe, false},
		{"force-kmh", 0.9, both, "kmh", planKMHScan, false},
		{"force-mh", 0.9, both, "mh", planMHSort, false},
		{"force-missing-index", 0.9, sigOnly, "kmh", "", true},
		// bps is a batch-only algorithm — it samples the raw rows, which
		// are not resident — so forcing it is rejected even when every
		// index is warm.
		{"force-bps-rejected", 0.9, both, "bps", "", true},
		{"unknown-force", 0.9, both, "quantum", "", true},
		{"no-index", 0.9, indexInfo{}, "", "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := choosePlan(c.threshold, c.idx, c.force)
			if c.wantErr {
				if err == nil {
					t.Fatalf("want error, got plan %+v", plan)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if plan.Kind != c.wantKind {
				t.Fatalf("plan %q, want %q (reason: %s)", plan.Kind, c.wantKind, plan.Reason)
			}
			if plan.Kind == planMLSHProbe {
				if plan.R != bandR || plan.L != c.idx.sigK/bandR {
					t.Fatalf("layout R=%d L=%d, want R=%d L=%d", plan.R, plan.L, bandR, c.idx.sigK/bandR)
				}
			}
			if plan.Reason == "" {
				t.Fatal("plan has no reason")
			}
		})
	}

	// The mlsh/kmh boundary sits exactly where detection crosses 0.9.
	r, l := bandLayout(200)
	for s := 0.05; s < 1; s += 0.01 {
		plan, err := choosePlan(s, both, "")
		if err != nil {
			t.Fatal(err)
		}
		wantProbe := bandDetect(s, r, l) >= minDetect
		if (plan.Kind == planMLSHProbe) != wantProbe {
			t.Fatalf("at threshold %.2f got %s, detect=%v", s, plan.Kind, bandDetect(s, r, l))
		}
	}
}

func TestBandLayout(t *testing.T) {
	if r, l := bandLayout(200); r != 5 || l != 40 {
		t.Fatalf("bandLayout(200) = (%d,%d), want (5,40)", r, l)
	}
	if r, l := bandLayout(3); r != 5 || l != 1 {
		t.Fatalf("bandLayout(3) = (%d,%d), want (5,1)", r, l)
	}
}
