package serve

import (
	"fmt"
	"strings"
	"testing"

	"assocmine/internal/lsh"
)

func TestChoosePlan(t *testing.T) {
	const sigK = 200
	cases := []struct {
		name      string
		threshold float64
		force     string
		wantKind  string
		wantErr   bool
	}{
		{"high-threshold-probes", 0.8, "", planMLSHProbe, false},
		{"low-threshold-scans", 0.2, "", planKMHScan, false},
		{"auto-alias", 0.8, "auto", planMLSHProbe, false},
		{"force-mlsh", 0.2, "mlsh", planMLSHProbe, false},
		{"force-kmh", 0.9, "kmh", planKMHScan, false},
		{"force-mh", 0.9, "mh", planMHSort, false},
		// bps is a batch-only algorithm — it samples the raw rows, which
		// are not resident — so forcing it is rejected even when every
		// index is warm.
		{"force-bps-rejected", 0.9, "bps", "", true},
		{"unknown-force", 0.9, "quantum", "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := choosePlan(c.threshold, sigK, c.force)
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
				if plan.R != bandR || plan.L != sigK/bandR {
					t.Fatalf("layout R=%d L=%d, want R=%d L=%d", plan.R, plan.L, bandR, sigK/bandR)
				}
			}
			if plan.Reason == "" {
				t.Fatal("plan has no reason")
			}
		})
	}

	// Signatures narrower than one band of bandR rows hold no band: every
	// threshold scans the sketches, and forcing mlsh is the request's
	// error, which names the sketch size.
	for _, k := range []int{3, 4} {
		t.Run(fmt.Sprintf("sigk=%d", k), func(t *testing.T) {
			for _, s := range []float64{0.5, 0.99} {
				if plan, err := choosePlan(s, k, ""); err != nil || plan.Kind != planKMHScan {
					t.Errorf("threshold %.2f: plan %+v, %v; want %s", s, plan, err, planKMHScan)
				}
				if plan, err := choosePlan(s, k, "mlsh"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("keeps %d", k)) {
					t.Errorf("threshold %.2f: forced mlsh gave %+v, %v", s, plan, err)
				}
			}
		})
	}

	// The mlsh/kmh boundary sits exactly where detection crosses 0.9.
	r, l := bandLayout(sigK)
	for s := 0.05; s < 1; s += 0.01 {
		plan, err := choosePlan(s, sigK, "")
		if err != nil {
			t.Fatal(err)
		}
		wantProbe := lsh.ProbAtLeastOnce(s, r, l) >= minDetect
		if (plan.Kind == planMLSHProbe) != wantProbe {
			t.Fatalf("at threshold %.2f got %s, detect=%v", s, plan.Kind, lsh.ProbAtLeastOnce(s, r, l))
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
