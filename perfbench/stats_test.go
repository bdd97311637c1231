package main

import (
	"math"
	"strings"
	"testing"
)

func TestMetricNameCharset(t *testing.T) {
	good := []struct{ name, unit string }{
		{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"net.speedup_2w", "ratio"},
		{"serve.epochs_per_s", "1/s"}, {"eval.E22_s", "s"}, {"9lives", "%"},
		{strings.Repeat("a", 64), "count"},
	}
	for _, c := range good {
		if err := checkName(c.name, c.unit); err != nil {
			t.Errorf("checkName(%q, %q) = %v, want ok", c.name, c.unit, err)
		}
	}
	bad := []struct{ name, unit string }{
		{"", "s"}, {"_lead", "s"}, {".lead", "s"}, {"has space", "s"}, {"slash/name", "s"},
		{strings.Repeat("a", 65), "s"}, {"ok", ""}, {"ok", "m s"}, {"ok", strings.Repeat("u", 17)},
	}
	for _, c := range bad {
		if err := checkName(c.name, c.unit); err == nil {
			t.Errorf("checkName(%q, %q) accepted", c.name, c.unit)
		}
	}
}

func TestEveryDeclaredMetricPassesTheCharset(t *testing.T) {
	for _, m := range endToEnd {
		if err := checkName(m.name, m.unit); err != nil {
			t.Error(err)
		}
	}
	for _, m := range layerMetrics {
		if err := checkName(m.name, m.unit); err != nil {
			t.Error(err)
		}
	}
	for _, w := range workloads {
		if err := checkName(w.name, "s"); err != nil {
			t.Errorf("workload: %v", err)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
		if lvl := tailLevel(c.n); lvl > 0 && float64(c.n)*(1-lvl/100) < 10-1e-9 {
			t.Errorf("tailLevel(%d) = p%g leaves fewer than ten samples beyond", c.n, lvl)
		}
	}
}

func TestSummaryReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.Tail != 99 {
		t.Fatalf("summary n=%d tail=p%g, want n=1000 tail=p99", s.N, s.Tail)
	}
	if got := s.String(); !strings.Contains(got, "p99") || !strings.Contains(got, "n=1000") {
		t.Errorf("summary %q lacks the tail level or the sample count", got)
	}
	few := summarize([]float64{3, 1, 2})
	if few.Tail != 0 || !strings.Contains(few.String(), "n=3") || !strings.Contains(few.String(), "too few") {
		t.Errorf("3-sample summary = %q, want median only with its count", few.String())
	}
}
