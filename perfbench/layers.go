package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"mmtag/internal/ap"
	"mmtag/internal/eval"
	"mmtag/internal/frame"
	"mmtag/internal/geom"
	"mmtag/internal/mac"
	"mmtag/internal/net"
	"mmtag/internal/obs"
	"mmtag/internal/par"
	"mmtag/internal/rfmath"
	"mmtag/internal/serve"
	"mmtag/internal/sim"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// layerMetric declares one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
	// moves names the end-to-end figures (on which workloads) the metric
	// should move.
	moves string
}

// layerMetrics lists every per-layer metric in report order.
var layerMetrics = []layerMetric{
	{"load.late_p99_ms", "ms", "lower", "validity of every service run (not a system metric)"},
	{"router.pinned_overhead_ms", "ms", "lower", "req_p50_ms on router-4shard"},
	{"router.scatter_ms", "ms", "lower", "req_p90_ms on router-4shard"},
	{"router.partial_ratio", "ratio", "lower", "fail_ratio, slo_ok_ratio on router-4shard"},
	{"router.shed", "count", "lower", "fail_ratio, slo_ok_ratio on router-4shard"},
	{"serve.status_rtt_ms", "ms", "lower", "req_p50_ms on serve-8ap-64tag"},
	{"serve.tag_rtt_ms", "ms", "lower", "req_p50_ms on serve-8ap-64tag"},
	{"serve.encode_tags_us", "us", "lower", "req_p90_ms on serve-8ap-64tag"},
	{"serve.encode_report_us", "us", "lower", "req_p90_ms on serve-8ap-64tag"},
	{"serve.encode_tag_us", "us", "lower", "req_p90_ms on serve-8ap-64tag"},
	{"serve.epochs_per_s", "1/s", "higher", "snapshot_age_s on serve-8ap-64tag and router-4shard"},
	{"serve.shed", "count", "lower", "fail_ratio on serve-8ap-64tag"},
	{"serve.admitted", "count", "higher", "fail_ratio on serve-8ap-64tag"},
	{"net.snapshot_us", "us", "lower", "epoch_s on epoch-8ap-64tag"},
	{"net.tag_states_us", "us", "lower", "epoch_s on epoch-8ap-64tag"},
	{"net.alloc_mb_per_epoch", "MiB", "lower", "epoch_s on epoch-8ap-64tag"},
	{"net.gc_per_epoch", "count", "lower", "epoch_s on epoch-8ap-64tag; req_p99_ms on serve-8ap-64tag"},
	{"net.cell_p50_ms", "ms", "lower", "epoch_s on epoch-8ap-64tag"},
	{"net.cell_max_ms", "ms", "lower", "epoch_s on epoch-8ap-64tag"},
	{"net.speedup_2w", "ratio", "higher", "epoch_s on epoch-8ap-64tag"},
	{"sim.inventory_ms", "ms", "lower", "epoch_s on epoch-8ap-64tag"},
	{"sim.snr_ns", "ns", "lower", "epoch_s on epoch-8ap-64tag"},
	{"sim.snr_queries", "count", "lower", "epoch_s on epoch-8ap-64tag"},
	{"sim.snr_inaudible_ratio", "ratio", "lower", "epoch_s on epoch-8ap-64tag"},
	{"mac.pick_rate_us", "us", "lower", "epoch_s on epoch-8ap-64tag"},
	{"antenna.ap_gain_ns", "ns", "lower", "epoch_s; req_p50_ms and snapshot_age_s on serve-8ap-64tag; suite_s"},
	{"eval.E3_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E7_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E9_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E11_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E12_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E19_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E20_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.E22_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.A2_s", "s", "lower", "suite_s on suite-e1-e22"},
	{"eval.R2_s", "s", "lower", "suite_s on suite-e1-e22"},
}

// Probe sizes: enough repetitions for a steady median, small enough
// that the whole traced run stays well inside its time limit.
const (
	netSteps    = 3      // measured Steps per pool width
	copyReps    = 50     // Snapshot / TagStates / encode repetitions
	simReps     = 5      // RunInventory repetitions
	snrCalls    = 200000 // Network.SNR calls timed
	pickCalls   = 20000  // PickRate calls timed
	gainCalls   = 1000000
	pinnedPairs = 100
)

// Copies of constants internal to mac and net that the probe cells are
// rebuilt with. probeCell checks the cells' links against net, which
// covers the copies that set a tag's link (tag loss, array, and the
// distance floor for any tag that close); the sector, payload and PER
// copies stay unchecked until net and mac export them.
const (
	pollPayload        = 64   // mac.StationConfig's default PollPayloadBytes
	targetPER          = 0.01 // mac.StationConfig's default TargetPER
	minCellDistM       = 0.25 // net's association range floor
	tagLossDB          = 1.5  // net's tag insertion loss
	discoverySectorDeg = 72   // net's per-cell beam-sweep half-angle
)

// sweepResult is the per-layer metrics plus the probes' operation
// counts and check failures.
type sweepResult struct {
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	checkErrs []error
}

func (s *sweepResult) absorb(st loadStats) {
	s.attempted += st.Sent
	s.failed += st.Failed
	s.checkErrs = append(s.checkErrs, st.CheckErrs...)
}

// sweep runs every layer probe under tr, each service probe for
// seconds of load.
func sweep(e *env, tr *tracer, seconds float64) (*sweepResult, error) {
	s := &sweepResult{values: make(map[string]float64)}
	steps := []struct {
		name string
		fn   func(*env, *tracer, float64, *sweepResult) error
	}{
		{"serve", probeServe},
		{"router", probeRouter},
		{"net", probeNet},
		{"eval", probeEval},
	}
	for _, st := range steps {
		fmt.Fprintf(e.log, "probing %s layer\n", st.name)
		if err := st.fn(e, tr, seconds, s); err != nil {
			return nil, fmt.Errorf("%s probe: %w", st.name, err)
		}
	}
	for _, m := range layerMetrics {
		if _, ok := s.values[m.name]; !ok {
			return nil, fmt.Errorf("probe left %s unmeasured", m.name)
		}
	}
	return s, nil
}

// probeServe drives one daemon open loop (the load and serve layers)
// and reads its admission counters and epoch rate around the load.
func probeServe(e *env, tr *tracer, seconds float64, s *sweepResult) error {
	f, err := launch(e.bin, false)
	if err != nil {
		return err
	}
	defer f.stop() //nolint:errcheck // a failed drain shows in the service workloads
	client := newLoadClient()
	defer client.CloseIdleConnections()
	shed0, admitted0, epoch0, t0, err := serveCounters(client, f.front)
	if err != nil {
		return err
	}
	root := tr.start("load.phase", 0, "")
	outs := openLoop(context.Background(), client, f.front, schedule(e.seed+1, serveRate, seconds, fleetTags),
		f.shape, tr, "serve", root.ID(), fmt.Sprintf("pb-serve-%d-", e.seed))
	root.End()
	shed1, admitted1, epoch1, t1, err := serveCounters(client, f.front)
	if err != nil {
		return err
	}
	st := reduce(outs)
	s.absorb(st)
	if err := st.lateErr(); err != nil {
		return err
	}
	s.values["load.late_p99_ms"] = summarize(st.Late).P99()
	s.values["serve.status_rtt_ms"] = median(st.RTT["status"])
	s.values["serve.tag_rtt_ms"] = median(st.RTT["tag"])
	s.values["serve.shed"] = shed1 - shed0
	s.values["serve.admitted"] = admitted1 - admitted0
	s.values["serve.epochs_per_s"] = float64(epoch1-epoch0) / t1.Sub(t0).Seconds()
	return nil
}

// serveCounters reads the daemon's shed and admitted totals and its
// current epoch.
func serveCounters(client *http.Client, url string) (shed, admitted float64, epoch int, at time.Time, err error) {
	if shed, err = scrapeCounter(client, url, "serve_shed_total"); err != nil {
		return
	}
	if admitted, err = scrapeCounter(client, url, "serve_admitted_total"); err != nil {
		return
	}
	var st struct {
		Epoch int `json:"epoch"`
	}
	at = time.Now()
	err = getJSON(client, url+"/v1/status", &st)
	return shed, admitted, st.Epoch, at, err
}

// probeRouter drives the router fleet open loop, then times pinned
// reads through the router against the same read sent straight to the
// owning shard.
func probeRouter(e *env, tr *tracer, seconds float64, s *sweepResult) error {
	f, err := launch(e.bin, true)
	if err != nil {
		return err
	}
	defer f.stop() //nolint:errcheck // a failed drain shows in the service workloads
	client := newLoadClient()
	defer client.CloseIdleConnections()
	shed0, err := scrapeCounter(client, f.front, "router_shed_total")
	if err != nil {
		return err
	}
	root := tr.start("load.phase", 0, "")
	outs := openLoop(context.Background(), client, f.front, schedule(e.seed+2, routerRate, seconds, fleetTags),
		f.shape, tr, "router", root.ID(), fmt.Sprintf("pb-router-%d-", e.seed))
	root.End()
	shed1, err := scrapeCounter(client, f.front, "router_shed_total")
	if err != nil {
		return err
	}
	st := reduce(outs)
	s.absorb(st)
	if err := st.lateErr(); err != nil {
		return err
	}
	s.values["router.scatter_ms"] = median(st.RTT["tags"])
	s.values["router.partial_ratio"] = float64(st.Partial) / float64(st.Sent)
	s.values["router.shed"] = shed1 - shed0

	rng := rand.New(rand.NewSource(e.seed + 3))
	pin := tr.start("router.pinned", 0, "")
	var diffs []float64
	for i := 0; i < pinnedPairs; i++ {
		id := 1 + rng.Intn(fleetTags)
		owner := net.OwnerShard(fleetTags, routerShard, id)
		direct := fleetShape{APs: fleetAPs, Tags: fleetTags}
		var viaRouter, viaShard time.Duration
		get := func(base string, shape fleetShape, d *time.Duration) {
			o := &outcome{arrival: arrival{Route: "tag", ID: id}, ReqID: fmt.Sprintf("pb-pin-%d-%d", e.seed, i)}
			now := time.Now()
			send(context.Background(), client, base, shape, tr, "router", pin.ID(), o, now, now)
			s.attempted++
			if !o.ok() {
				s.failed++
				if o.CheckErr != nil {
					s.checkErrs = append(s.checkErrs, o.CheckErr)
				}
			}
			*d = o.RTT
		}
		if i%2 == 0 { // alternate which side goes first
			get(f.front, f.shape, &viaRouter)
			get(f.shards[owner].url, direct, &viaShard)
		} else {
			get(f.shards[owner].url, direct, &viaShard)
			get(f.front, f.shape, &viaRouter)
		}
		diffs = append(diffs, ms(viaRouter-viaShard))
	}
	pin.End()
	s.values["router.pinned_overhead_ms"] = median(diffs)
	return nil
}

// probeNet measures the epoch path layer by layer on the epoch
// workload's deployment: net (Step, Snapshot, TagStates, allocation,
// per-cell wall, pool speed-up), serve's snapshot encoders, and one
// cell rebuilt for sim, mac and antenna.
func probeNet(e *env, tr *tracer, _ float64, s *sweepResult) error {
	root := tr.start("net.probe", 0, "")
	defer root.End()
	stepWalls := func(w int) (*net.Deployment, *net.Runner, *obs.Registry, []float64, runtime.MemStats, error) {
		var before runtime.MemStats
		pool := par.New(par.Config{Workers: w})
		defer pool.Close()
		reg := obs.NewRegistry()
		cfg := epochConfig(pool)
		cfg.Obs = obs.NewHandle(reg, nil)
		d, r, err := newEpochRunner(cfg)
		if err != nil {
			return nil, nil, nil, nil, before, err
		}
		if err := r.Step(); err != nil { // warm-up
			return nil, nil, nil, nil, before, err
		}
		runtime.ReadMemStats(&before)
		var walls []float64
		for i := 0; i < netSteps; i++ {
			sp := tr.start("net.step", root.ID(), "")
			t0 := time.Now()
			err := r.Step()
			walls = append(walls, ms(time.Since(t0)))
			sp.End()
			s.attempted++
			if err != nil {
				return nil, nil, nil, nil, before, err
			}
		}
		return d, r, reg, walls, before, nil
	}
	_, _, _, walls1, _, err := stepWalls(1)
	if err != nil {
		return err
	}
	d, r, reg, walls2, before, err := stepWalls(workers)
	if err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.values["net.alloc_mb_per_epoch"] = float64(after.TotalAlloc-before.TotalAlloc) / netSteps / (1 << 20)
	s.values["net.gc_per_epoch"] = float64(after.NumGC-before.NumGC) / netSteps
	s.values["net.speedup_2w"] = median(walls1) / median(walls2)
	cell := reg.Quantile("net_epoch_wall_seconds", "")
	s.values["net.cell_p50_ms"] = cell.Value(0.5) * 1e3
	s.values["net.cell_max_ms"] = cell.Value(1) * 1e3

	s.values["net.snapshot_us"] = timeMedianUS(tr, "net.snapshot", root.ID(), copyReps, func() { r.Snapshot() })
	s.values["net.tag_states_us"] = timeMedianUS(tr, "net.tag_states", root.ID(), copyReps, func() { d.TagStates() })

	// First render of each view on a fresh snapshot, as the daemon's
	// first reader after an epoch pays it.
	rep, tags := r.Snapshot(), d.TagStates()
	ctx := context.Background()
	fresh := func() *serve.Snapshot {
		return &serve.Snapshot{Epoch: r.Epochs(), TakenAt: time.Now(), Report: rep, Tags: tags}
	}
	var encErr error
	keep := func(err error) {
		if err != nil && encErr == nil {
			encErr = err
		}
	}
	s.values["serve.encode_tags_us"] = timeMedianFresh(tr, "serve.encode_tags", root.ID(), fresh, func(sn *serve.Snapshot) {
		_, err := sn.TagsJSON(ctx)
		keep(err)
	})
	s.values["serve.encode_report_us"] = timeMedianFresh(tr, "serve.encode_report", root.ID(), fresh, func(sn *serve.Snapshot) {
		_, err := sn.ReportJSON(ctx)
		keep(err)
	})
	s.values["serve.encode_tag_us"] = timeMedianFresh(tr, "serve.encode_tag", root.ID(), fresh, func(sn *serve.Snapshot) {
		_, ok, err := sn.TagJSON(ctx, tags[len(tags)/2].ID)
		keep(err)
		if !ok {
			keep(fmt.Errorf("TagJSON: tag %d missing", tags[len(tags)/2].ID))
		}
	})
	if encErr != nil {
		return encErr
	}
	return probeCell(d, tags, tr, root.ID(), s)
}

// probeCell rebuilds the busiest cell through the public constructors
// (as net's runCell does, minus the co-channel interferers, which only
// net can compute) and times sim, mac and antenna on it.
func probeCell(d *net.Deployment, tags []net.TagInfo, tr *tracer, parent int64, s *sweepResult) error {
	count := make(map[int]int)
	for _, t := range tags {
		count[t.Serving]++
	}
	cell := 0
	for c := range count {
		if count[c] > count[cell] || (count[c] == count[cell] && c < cell) {
			cell = c
		}
	}
	s.notes = append(s.notes, fmt.Sprintf("sim/mac/antenna probes: AP %d's cell (%d tags) without co-channel interferers, which only net can compute", cell, count[cell]))
	type placed struct {
		id  uint8
		az  float64
		pos geom.Point
	}
	build := func(cell int, h *obs.Handle) (*sim.Network, []placed, error) {
		a, err := ap.New(ap.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		n, err := sim.NewNetwork(a, nil)
		if err != nil {
			return nil, nil, err
		}
		n.Instrument(h)
		mod, err := vanatta.ByName("qpsk")
		if err != nil {
			return nil, nil, err
		}
		var ps []placed
		for _, t := range tags {
			if t.Serving != cell {
				continue
			}
			arr, err := vanatta.New(vanatta.Config{Elements: 8, InsertionLossDB: tagLossDB})
			if err != nil {
				return nil, nil, err
			}
			dev, err := tag.New(tag.Config{ID: t.ID, Array: arr, Modulation: mod, SwitchRiseTime: 2e-9})
			if err != nil {
				return nil, nil, err
			}
			dist, az := geom.Polar(d.APPos(cell), t.Pos, math.Pi/2)
			dist = math.Max(dist, minCellDistM)
			if err := n.AddTag(sim.Placement{Device: dev, DistanceM: dist, AzimuthRad: az}); err != nil {
				return nil, nil, err
			}
			ps = append(ps, placed{t.ID, az, t.Pos})
		}
		return n, ps, nil
	}
	cfg := epochConfig(nil)
	invCfg := func(rep int) sim.InventoryConfig {
		return sim.InventoryConfig{
			SectorRad: sim.Deg(discoverySectorDeg),
			Duration:  cfg.Duration / float64(cfg.Epochs),
			Station:   mac.StationConfig{Health: mac.DefaultHealthConfig()},
			Seed:      par.Derive(fleetSeed, uint64(rep)),
		}
	}

	// sim.RunInventory on uninstrumented networks, as net runs it.
	var walls []float64
	for i := 0; i < simReps; i++ {
		n, _, err := build(cell, nil)
		if err != nil {
			return err
		}
		sp := tr.start("sim.inventory", parent, "")
		t0 := time.Now()
		_, err = sim.RunInventory(n, invCfg(i))
		walls = append(walls, ms(time.Since(t0)))
		sp.End()
		s.attempted++
		if err != nil {
			return err
		}
	}
	s.values["sim.inventory_ms"] = median(walls)

	// The SNR counters, from one instrumented inventory.
	reg := obs.NewRegistry()
	n, ps, err := build(cell, obs.NewHandle(reg, nil))
	if err != nil {
		return err
	}
	if _, err := sim.RunInventory(n, invCfg(0)); err != nil {
		return err
	}
	queries := reg.Counter("sim_snr_queries_total", "").Value()
	s.values["sim.snr_queries"] = queries
	s.values["sim.snr_inaudible_ratio"] = reg.Counter("sim_snr_inaudible_total", "").Value() / math.Max(queries, 1)

	n, ps, err = build(cell, nil)
	if err != nil {
		return err
	}
	if len(ps) == 0 {
		return fmt.Errorf("cell %d has no tags", cell)
	}
	table := mac.DefaultRateTable()

	// The cells are built from copies of net's private constants.
	// net.Deployment.ProbeSINR builds the same link for a tag at the
	// same spot, so in every cell the two must agree where no
	// co-channel interferer is in range, and the copy may only read
	// higher where one is.
	exact, checked := 0, 0
cells:
	for c := range count {
		cn, cps, err := build(c, nil)
		if err != nil {
			return err
		}
		for _, p := range cps {
			want, interferers, err := d.ProbeSINR(c, p.pos, table[0])
			if err != nil {
				return err
			}
			got := math.Inf(-1)
			if v, ok := cn.SNR(p.id, p.az, table[0]); ok {
				got = rfmath.DB(v)
			}
			s.attempted++
			checked++
			if (interferers == 0 && got != want && math.Abs(got-want) > 1e-9) || got < want-1e-9 {
				s.failed++
				s.checkErrs = append(s.checkErrs, fmt.Errorf("cell %d, tag %d: rebuilt SNR %.6g dB, net.ProbeSINR %.6g dB with %d interferers: the probe's copies of net's cell constants are stale", c, p.id, got, want, interferers))
				break cells
			}
			if interferers == 0 {
				exact++
			}
		}
	}
	s.notes = append(s.notes, fmt.Sprintf("rebuilt cells cross-checked against net.ProbeSINR: %d of %d tags equal (no interferer in range), the rest no lower", exact, checked))

	var sink float64
	sp := tr.start("sim.snr", parent, "")
	t0 := time.Now()
	for i := 0; i < snrCalls; i++ {
		p := ps[i%len(ps)]
		v, _ := n.SNR(p.id, p.az, table[i%len(table)])
		sink += v
	}
	s.values["sim.snr_ns"] = float64(time.Since(t0).Nanoseconds()) / snrCalls
	sp.End()

	airBits := frame.AirBits(pollPayload, frame.Options{})
	sp = tr.start("mac.pick_rate", parent, "")
	t0 = time.Now()
	for i := 0; i < pickCalls; i++ {
		p := ps[i%len(ps)]
		r, _, err := mac.PickRate(table, targetPER, airBits, func(r mac.Rate) float64 {
			v, ok := n.SNR(p.id, p.az, r)
			if !ok {
				return 0
			}
			return v
		})
		if err != nil {
			return err
		}
		sink += r.BitRate
	}
	s.values["mac.pick_rate_us"] = float64(time.Since(t0).Nanoseconds()) / pickCalls / 1e3
	sp.End()

	a, err := ap.New(ap.DefaultConfig())
	if err != nil {
		return err
	}
	a.Steer(ps[0].az)
	sp = tr.start("antenna.ap_gain", parent, "")
	t0 = time.Now()
	for i := 0; i < gainCalls; i++ {
		sink += a.GainToward(sim.Deg(float64(i%145) - 72))
	}
	s.values["antenna.ap_gain_ns"] = float64(time.Since(t0).Nanoseconds()) / gainCalls
	sp.End()
	if math.IsNaN(sink) {
		return fmt.Errorf("probe produced NaN")
	}
	return nil
}

// evalProbeIDs are the experiments whose wall time the traced run
// reports: the suite's heaviest entries.
var evalProbeIDs = []string{"E3", "E7", "E9", "E11", "E12", "E19", "E20", "E22", "A2", "R2"}

// probeEval times single experiments on the suite's pool.
func probeEval(e *env, tr *tracer, _ float64, s *sweepResult) error {
	pool := par.New(par.Config{Workers: workers})
	defer pool.Close()
	root := tr.start("eval.probe", 0, "")
	defer root.End()
	tb := eval.DefaultTestbed()
	for _, id := range evalProbeIDs {
		sp := tr.start("eval."+id, root.ID(), "")
		t0 := time.Now()
		_, err := eval.RunExperiment(eval.Exec{Pool: pool}, id, tb, suiteSeed)
		s.values["eval."+id+"_s"] = time.Since(t0).Seconds()
		sp.End()
		s.attempted++
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// timeMedianUS times fn reps times and returns the median in µs.
func timeMedianUS(tr *tracer, name string, parent int64, reps int, fn func()) float64 {
	sp := tr.start(name, parent, "")
	defer sp.End()
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(xs)
}

// timeMedianFresh times fn on a fresh value from mk each repetition.
func timeMedianFresh(tr *tracer, name string, parent int64, mk func() *serve.Snapshot, fn func(*serve.Snapshot)) float64 {
	sp := tr.start(name, parent, "")
	defer sp.End()
	var xs []float64
	for i := 0; i < copyReps; i++ {
		sn := mk()
		t0 := time.Now()
		fn(sn)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(xs)
}

// getJSON GETs url and decodes a 200 body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(b, v)
}

// printLayerTable renders the per-layer metrics with the end-to-end
// figures each should move.
func printLayerTable(w io.Writer, values map[string]float64) {
	fmt.Fprintf(w, "\nper-layer metrics (traced run):\n")
	width := 0
	for _, m := range layerMetrics {
		width = max(width, len(m.name))
	}
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-*s %12.4g %-6s moves: %s\n", width, m.name, values[m.name], m.unit, m.moves)
	}
}
