package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricName is the charset every metric and workload name obeys: a
// letter or digit first, then at most 63 letters, digits, '_', '.' or
// '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the charset of a metric unit.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkName reports whether name and unit may appear in the result.
func checkName(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	if !unitName.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", name, unit)
	}
	return nil
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tailLevel returns the highest of tailLevels that has at least ten of
// n samples beyond it, or 0 when none has.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// summary is a sample set reduced to what the report prints.
type summary struct {
	N      int
	P50    float64
	P90    float64
	Tail   float64 // percentile level of TailV; 0 = too few samples
	TailV  float64
	Sorted []float64
}

// summarize sorts a copy of xs and reads its median, p90 and the tail
// percentile chosen by tailLevel.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90), Sorted: s}
	if lvl := tailLevel(len(s)); lvl > 0 {
		out.Tail, out.TailV = lvl, percentile(s, lvl)
	}
	return out
}

// String renders the summary with its sample count, e.g.
// "p50 1.2 p99 4.5 (n=1500)".
func (s summary) String() string {
	if s.N == 0 {
		return "no samples"
	}
	if s.Tail == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d; too few samples for a tail)", s.P50, s.N)
	}
	return fmt.Sprintf("p50 %.4g p%g %.4g (n=%d)", s.P50, s.Tail, s.TailV, s.N)
}

// median is the 50th percentile of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// P99 is the 99th percentile (NaN when empty).
func (s summary) P99() float64 { return percentile(s.Sorted, 99) }
