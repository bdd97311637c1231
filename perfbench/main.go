// Command perfbench is the repository benchmark: one command that runs
// a workload against the sources it is built from, checks the outputs,
// and prints every end-to-end metric by name, unit and sample count. A
// traced run (-trace 1) instead prints the per-layer metrics, each
// layer's self time, and the tracing overhead. See README.md.
//
//	bash perfbench/run.sh --workload serve-8ap-64tag --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one reported figure; N is the number of samples behind it
// and Pct the percentile of them it reads (0 when not a percentile).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Pct   float64
}

// e2eMetric declares one end-to-end metric every untraced run reports.
type e2eMetric struct{ name, unit, better string }

// endToEnd lists the end-to-end metrics. Every workload reports every
// one; op is the workload's unit operation (workload.opName).
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
}

// tracedSeconds caps each loaded phase of a traced run, which runs the
// workload twice and then every layer probe.
const tracedSeconds = 8

// runResult is what one invocation prints.
type runResult struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 25, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	repo := fs.String("repo", ".", "checkout root (the program's sources)")
	bin := fs.String("bin", "", "directory holding the built mmtag-serve, mmtag-router and mmtag-bench")
	out := fs.String("out", "", "scratch directory inside the checkout")
	ref := fs.String("ref", "", "internal: compute the serial reference epoch|suite")
	refOut := fs.String("ref-out", "", "internal: where the reference is written")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ref != "" {
		if err := buildReference(*ref, *refOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *out == "":
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, -trace 0|1, -bin and -out")
		return 2
	}
	e := &env{repo: *repo, bin: *bin, out: *out, seed: *seed, log: stdout}
	fmt.Fprintf(stdout, "workload %s (seed %d, %d s, trace %d): %s\n", w.name, *seed, *seconds, *trace, w.why)
	var res *runResult
	var err error
	if *trace == 0 {
		res, err = measure(w, e, float64(*seconds))
	} else {
		res, err = traced(w, e, float64(*seconds))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure is the untraced run: the end-to-end metrics.
func measure(w workload, e *env, seconds float64) (*runResult, error) {
	steal := stealMeter()
	r, err := w.run(e, nil, seconds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "host CPU time stolen from this machine during the run: %s\n", steal())
	ms := e2eMetrics(r)
	fmt.Fprintf(e.log, "\nend-to-end metrics (op = %s):\n", w.opName)
	printMetrics(e.log, ms)
	fmt.Fprintf(e.log, "\n%s figures:\n", w.name)
	printMetrics(e.log, r.report)
	if r.load != nil {
		fmt.Fprintf(e.log, "  generator lateness %s ms; %d sent, %d ok, %d partial (207), %d failed\n",
			summarize(r.load.Late), r.load.Sent, r.load.OK, r.load.Partial, r.load.Failed)
	}
	printCheckErrs(e.log, r.checkErrs)
	return &runResult{correct: len(r.checkErrs) == 0, attempted: r.attempted, failed: r.failed, metrics: ms}, nil
}

// e2eMetrics reduces one pass to the endToEnd metrics, in order.
func e2eMetrics(r *wlResult) []metric {
	op := summarize(r.opMS)
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(r.setupS), N: len(r.setupS), Pct: 50},
		{Name: "peak_rss_mb", Unit: "MiB", Value: r.rssMiB, N: 1},
		{Name: "op_p50_ms", Unit: "ms", Value: op.P50, N: op.N, Pct: 50},
		{Name: "op_p90_ms", Unit: "ms", Value: op.P90, N: op.N, Pct: 90},
	}
}

// traced is the traced run: the workload untraced and then traced for
// a short phase each (their difference is the tracing overhead), then
// every layer probe under the same tracer.
func traced(w workload, e *env, seconds float64) (*runResult, error) {
	short := math.Min(seconds, tracedSeconds)
	fmt.Fprintf(e.log, "untraced pass (%g s)\n", short)
	plain, err := w.run(e, nil, short)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	fmt.Fprintf(e.log, "traced pass (%g s)\n", short)
	withTrace, err := w.run(e, tr, short)
	if err != nil {
		return nil, err
	}
	sw, err := sweep(e, tr, short)
	if err != nil {
		return nil, err
	}
	printLayerTable(e.log, sw.values)
	for _, n := range sw.notes {
		fmt.Fprintf(e.log, "  note: %s\n", n)
	}
	printSelfTimes(e.log, tr.snapshot())
	fmt.Fprintf(e.log, "\ntracing overhead on %s (traced minus untraced pass):\n", w.name)
	a, b := e2eMetrics(plain), e2eMetrics(withTrace)
	for i := range a {
		fmt.Fprintf(e.log, "  %-12s %+.4g %s (untraced %.6g n=%d, traced %.6g n=%d)\n",
			a[i].Name, b[i].Value-a[i].Value, a[i].Unit, a[i].Value, a[i].N, b[i].Value, b[i].N)
	}
	spans := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.seed))
	if err := tr.writeJSONL(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "spans written to %s\n", spans)

	errs := append(append(append([]error(nil), plain.checkErrs...), withTrace.checkErrs...), sw.checkErrs...)
	printCheckErrs(e.log, errs)
	res := &runResult{
		correct:   len(errs) == 0,
		attempted: plain.attempted + withTrace.attempted + sw.attempted,
		failed:    plain.failed + withTrace.failed + sw.failed,
	}
	for _, m := range layerMetrics {
		res.metrics = append(res.metrics, metric{Name: m.name, Unit: m.unit, Value: sw.values[m.name]})
	}
	return res, nil
}

// stealMeter starts measuring the share of CPU time the hypervisor gave
// to other guests (the steal column of /proc/stat). Timings rise with
// it, so every run reports it next to its figures.
func stealMeter() func() string {
	read := func() (steal, total float64, ok bool) {
		b, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0, false
		}
		line, _, _ := strings.Cut(string(b), "\n")
		fields := strings.Fields(line)
		if len(fields) < 9 || fields[0] != "cpu" {
			return 0, 0, false
		}
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, 0, false
			}
			if i < 8 { // user..steal; guest time is already in user
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return steal, total, true
	}
	s0, t0, ok0 := read()
	return func() string {
		s1, t1, ok1 := read()
		if !ok0 || !ok1 || t1 <= t0 {
			return "unknown"
		}
		return fmt.Sprintf("%.1f%%", 100*(s1-s0)/(t1-t0))
	}
}

// printMetrics prints each metric with its sample count, and says so
// when a percentile has fewer samples beyond it than the tail rule
// (tailLevel) asks.
func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.Pct > 50 && tailLevel(m.N) < m.Pct {
			note = fmt.Sprintf("; %.3g samples beyond p%g, under the 10 the tail rule asks", float64(m.N)*(1-m.Pct/100), m.Pct)
		}
		fmt.Fprintf(w, "  %-14s %14.6g %-5s (n=%d%s)\n", m.Name, m.Value, m.Unit, m.N, note)
	}
}

func printCheckErrs(w io.Writer, errs []error) {
	if len(errs) == 0 {
		fmt.Fprintln(w, "output checks: all passed")
		return
	}
	fmt.Fprintf(w, "output checks: %d FAILED\n", len(errs))
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(w, "  ... and %d more\n", len(errs)-5)
			break
		}
		fmt.Fprintf(w, "  %v\n", err)
	}
}

// resultJSON renders the final line, refusing names outside the
// charset and values that are not finite numbers.
func resultJSON(r *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if err := checkName(m.Name, m.Unit); err != nil {
			return "", err
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v: nothing measured", m.Name, m.Value)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}
