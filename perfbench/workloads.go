package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mmtag/internal/eval"
	"mmtag/internal/net"
	"mmtag/internal/par"
)

const (
	// setupReps is how many times a service or epoch run sets its
	// workload up; setup_s is the median.
	setupReps = 9
	// suiteLaunches is how many times a suite run launches mmtag-bench
	// for its first experiment; setup_s is the median. The launches are
	// made suiteLaunchBatch at a time before each suite, so they sample
	// the whole run rather than one moment of it, and topped up after.
	suiteLaunches    = 60
	suiteLaunchBatch = 20
	// firstExperiment is the suite's first entry: a suite's set-up ends
	// when its table is out.
	firstExperiment = "E1"
	// workers sizes every in-process pool: the host's two cores.
	workers = 2
	// handoffCap is mmtag-serve's default -handoff-log.
	handoffCap = 256
	// epochWindow is how many Steps one epoch-workload pass times.
	epochWindow = 8
	// suiteSeed is the seed mmtag-bench runs the suite with.
	suiteSeed = 42
	// serveRate and routerRate are the fixed open-loop arrival rates.
	serveRate  = 100.0
	routerRate = 50.0
)

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	why  string
	// opName names the unit operation op_p50_ms/op_p90_ms time.
	opName string
	run    func(e *env, tr *tracer, seconds float64) (*wlResult, error)
}

// wlResult is what one pass over a workload measured.
type wlResult struct {
	setupS    []float64
	rssMiB    float64
	opMS      []float64 // the workload's unit operation, ms
	attempted int
	failed    int
	checkErrs []error    // outputs that failed their check
	report    []metric   // per-workload figures, printed with the result
	load      *loadStats // service workloads only
}

var workloads = []workload{
	{
		name:   "epoch-8ap-64tag",
		why:    "net Runner.Step back to back at mmtag-serve defaults (8 APs, 64 tags, seed 42, 2 workers): the epoch hotspot net>sim>mac>SNR>antenna, free of HTTP and the 250 ms pacing",
		opName: "net.Runner.Step",
		run:    runEpoch,
	},
	{
		name:   "serve-8ap-64tag",
		why:    "one mmtag-serve at defaults, open loop 100 req/s, mix tags=2,tag=4,report=1,status=1, <=2 loopback conns, 50 ms SLO: requests share both cores with a back-to-back epoch loop",
		opName: "HTTP request (from its due time)",
		run:    func(e *env, tr *tracer, s float64) (*wlResult, error) { return runService(e, tr, s, false) },
	},
	{
		name:   "router-4shard",
		why:    "mmtag-router over 4 mmtag-serve -shard i/4, open loop 50 req/s, same mix, <=2 loopback conns, 50 ms SLO: the only workload with scatter-gather, merge, pinned routing and 207s",
		opName: "HTTP request (from its due time)",
		run:    func(e *env, tr *tracer, s float64) (*wlResult, error) { return runService(e, tr, s, true) },
	},
	{
		name:   "suite-e1-e22",
		why:    "eval.RunSuite on a 2-worker pool, seed 42: the only workload where dsp/phy/ap batch demod, fec and the tier-c scale path (E22) do most of the work; bypasses serve and router",
		opName: "eval.RunSuite",
		run:    runSuite,
	},
}

// more reports whether another repetition lasting about last still
// fits in a phase of seconds: a phase stops at the repetition count
// that lands closest to seconds, so runs stay near their length
// however slow one repetition is.
func more(elapsed, last time.Duration, seconds float64) bool {
	return (elapsed + last/2).Seconds() < seconds
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// epochConfig is the deployment mmtag-serve -aps 8 -tags 64 hosts at
// its flag defaults.
func epochConfig(pool *par.Pool) net.Config {
	return net.Config{
		APs: fleetAPs, Tags: fleetTags, Seed: fleetSeed,
		Duration: 0.2, Epochs: 4, MobileFrac: 0.25,
		Pool: pool,
	}
}

// newEpochRunner builds the deployment and its runner.
func newEpochRunner(cfg net.Config) (*net.Deployment, *net.Runner, error) {
	d, err := net.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return d, d.Runner(handoffCap), nil
}

// runEpoch measures passes over a fixed window of epochs for about
// seconds (at least one pass). Each pass sets up afresh (deployment
// plus one warm-up Step, timed as setup), times epochWindow Steps, and
// checks the final state against a serial run of as many epochs. Then
// it sets up alone until setupReps set-ups are timed. A
// fixed window keeps the measured epochs the same however many passes
// fit, since some epochs cost more than others.
func runEpoch(e *env, tr *tracer, seconds float64) (*wlResult, error) {
	pool := par.New(par.Config{Workers: workers})
	defer pool.Close()
	want, err := e.epochReference()
	if err != nil {
		return nil, err
	}
	res := &wlResult{}
	start := time.Now()
	for pass := time.Duration(0); len(res.setupS) == 0 || more(time.Since(start), pass, seconds); {
		passStart := time.Now()
		d, r, err := setUpEpoch(pool, tr, res)
		if err != nil {
			return nil, err
		}
		steps := tr.start("net.steps", 0, "")
		for i := 0; i < epochWindow; i++ {
			sp := tr.start("net.step", steps.ID(), "")
			t0 := time.Now()
			err := r.Step()
			res.opMS = append(res.opMS, ms(time.Since(t0)))
			sp.End()
			res.attempted++
			if err != nil {
				return nil, fmt.Errorf("step %d: %w", r.Epochs(), err)
			}
		}
		steps.End()
		res.attempted++ // the digest check
		got, err := stateDigest(r.Snapshot(), d.TagStates())
		if err != nil {
			return nil, err
		}
		if err := checkDigest(fmt.Sprintf("epoch %d state", r.Epochs()), got, want); err != nil {
			res.failed++
			res.checkErrs = append(res.checkErrs, err)
		}
		pass = time.Since(passStart)
	}
	// A pass sets up once; more set-ups steady setup_s's median.
	for len(res.setupS) < setupReps {
		if _, _, err := setUpEpoch(pool, tr, res); err != nil {
			return nil, err
		}
	}
	if res.rssMiB, err = peakRSSOf("self"); err != nil {
		return nil, err
	}
	s := summarize(res.opMS)
	res.report = []metric{
		{Name: "epoch_s", Unit: "s", Value: s.P50 / 1e3, N: s.N, Pct: 50},
		{Name: "epoch_p90_s", Unit: "s", Value: s.P90 / 1e3, N: s.N, Pct: 90},
	}
	return res, nil
}

// setUpEpoch builds a deployment and runs its warm-up Step, recording
// the time taken as one set-up of res.
func setUpEpoch(pool *par.Pool, tr *tracer, res *wlResult) (*net.Deployment, *net.Runner, error) {
	sp := tr.start("net.setup", 0, "")
	defer sp.End()
	t0 := time.Now()
	d, r, err := newEpochRunner(epochConfig(pool))
	if err != nil {
		return nil, nil, err
	}
	if err := r.Step(); err != nil {
		return nil, nil, fmt.Errorf("warm-up step: %w", err)
	}
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	return d, r, nil
}

// runSuite runs the suite back to back in this process for about
// seconds (at least once), checking every run's tables against the
// serial suite. Around the suites it launches mmtag-bench for the
// suite's first experiment suiteLaunches times (setup_s: exec until its
// table is out, checked against the same table built here).
func runSuite(e *env, tr *tracer, seconds float64) (*wlResult, error) {
	res := &wlResult{}
	pool, tb := par.New(par.Config{Workers: workers}), eval.DefaultTestbed()
	defer pool.Close()
	first, err := eval.RunExperiment(eval.Exec{Pool: pool}, firstExperiment, tb, suiteSeed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", firstExperiment, err)
	}
	var wantFirst strings.Builder
	for _, t := range first {
		wantFirst.WriteString(t.Render() + "\n")
	}
	bench := filepath.Join(e.bin, "mmtag-bench")
	args := []string{"-experiment", firstExperiment, "-seed", strconv.Itoa(suiteSeed), "-parallel", strconv.Itoa(workers)}
	launch := func(n int) error {
		for i := 0; i < n; i++ {
			sp := tr.start("eval.launch", 0, "")
			t0 := time.Now()
			out, err := exec.Command(bench, args...).Output()
			res.setupS = append(res.setupS, time.Since(t0).Seconds())
			sp.End()
			res.attempted++
			if err != nil {
				return fmt.Errorf("mmtag-bench %s: %w", strings.Join(args, " "), err)
			}
			if string(out) != wantFirst.String() {
				res.failed++
				res.checkErrs = append(res.checkErrs, fmt.Errorf("mmtag-bench %s printed %d bytes that differ from the in-process %s table", strings.Join(args, " "), len(out), firstExperiment))
			}
		}
		return nil
	}
	want, err := e.suiteReference()
	if err != nil {
		return nil, err
	}
	root := tr.start("eval.suites", 0, "")
	start := time.Now()
	for last := time.Duration(0); len(res.opMS) == 0 || more(time.Since(start), last, seconds); {
		if err := launch(suiteLaunchBatch); err != nil {
			return nil, err
		}
		sp := tr.start("eval.suite", root.ID(), "")
		t0 := time.Now()
		tabs, err := eval.RunSuite(eval.Exec{Pool: pool}, tb, suiteSeed)
		last = time.Since(t0)
		res.opMS = append(res.opMS, ms(last))
		sp.End()
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("RunSuite: %w", err)
		}
		if err := checkDigest("suite tables", tablesDigest(tabs), want); err != nil {
			res.failed++
			res.checkErrs = append(res.checkErrs, err)
		}
	}
	root.End()
	if err := launch(suiteLaunches - len(res.setupS)); err != nil {
		return nil, err
	}
	if res.rssMiB, err = peakRSSOf("self"); err != nil {
		return nil, err
	}
	s := summarize(res.opMS)
	res.report = []metric{{Name: "suite_s", Unit: "s", Value: s.P50 / 1e3, N: s.N, Pct: 50}}
	return res, nil
}

// runService launches the service setupReps times (keeping the last),
// drives it open loop for seconds, checks every response, and stops it
// with SIGTERM, which must drain cleanly.
func runService(e *env, tr *tracer, seconds float64, router bool) (*wlResult, error) {
	res := &wlResult{}
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.kill()
		}
		var err error
		if f, err = launch(e.bin, router); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, f.setupS)
	}
	rate, layer := serveRate, "serve"
	if router {
		rate, layer = routerRate, "router"
	}
	client := newLoadClient()
	root := tr.start("load.phase", 0, "")
	outs := openLoop(context.Background(), client, f.front, schedule(e.seed, rate, seconds, fleetTags),
		f.shape, tr, layer, root.ID(), fmt.Sprintf("pb-%d-", e.seed))
	root.End()
	client.CloseIdleConnections()
	rss, rssErr := f.peakRSSMiB()
	if err := f.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	st := reduce(outs)
	if err := st.lateErr(); err != nil {
		return nil, err
	}
	res.rssMiB, res.opMS, res.load = rss, st.Latency, &st
	res.attempted, res.failed, res.checkErrs = st.Sent, st.Failed, st.CheckErrs
	if st.OK == 0 {
		return nil, fmt.Errorf("no request succeeded out of %d", st.Sent)
	}
	lat := summarize(st.Latency)
	res.report = []metric{
		{Name: "req_p50_ms", Unit: "ms", Value: lat.P50, N: lat.N, Pct: 50},
		{Name: "req_p90_ms", Unit: "ms", Value: lat.P90, N: lat.N, Pct: 90},
	}
	if !router {
		res.report = append(res.report, metric{Name: "req_p99_ms", Unit: "ms", Value: lat.P99(), N: lat.N, Pct: 99})
	}
	res.report = append(res.report,
		metric{Name: "slo_ok_ratio", Unit: "ratio", Value: float64(st.SLOOK) / float64(st.Sent), N: st.Sent},
		metric{Name: "fail_ratio", Unit: "ratio", Value: float64(st.Failed) / float64(st.Sent), N: st.Sent},
		metric{Name: "snapshot_age_s", Unit: "s", Value: median(st.Age), N: len(st.Age), Pct: 50},
	)
	return res, nil
}
