package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The open-loop generator. Requests leave on a fixed-rate schedule
// whether or not earlier ones have been answered, so a stalled server
// faces a growing queue instead of a politely slowing client; each
// request is timed from when it was due, not from when it was sent, so
// a stall also charges every request it delayed.
const (
	// maxConns caps keep-alive connections to the front door: one
	// process generates all load, with no more connections than the
	// host's two cores.
	maxConns = 2
	// sloLimit is the latency a request must beat, from its due time,
	// with a checked 2xx, to count toward slo_ok_ratio.
	sloLimit = 50 * time.Millisecond
	// requestTimeout bounds one request, connection wait included; a
	// request that hits it counts as failed.
	requestTimeout = 2 * time.Second
	// maxLateP99 is how late (p99) the generator may send before the
	// run's latencies stop describing the schedule; a run over it is
	// invalid.
	maxLateP99 = 25 * time.Millisecond
)

// mixEntry is one weighted route of the request mix.
type mixEntry struct {
	route  string
	weight int
}

// defaultMix is mmtag-load's default: tags=2,tag=4,report=1,status=1.
var defaultMix = []mixEntry{{"tags", 2}, {"tag", 4}, {"report", 1}, {"status", 1}}

// arrival is one scheduled request.
type arrival struct {
	Due   time.Duration // offset from the schedule's start
	Route string
	ID    int // tag ID, for route "tag"
}

func (a arrival) path() string {
	if a.Route == "tag" {
		return "/v1/tags/" + strconv.Itoa(a.ID)
	}
	return "/v1/" + a.Route
}

// schedule draws n = rate*seconds arrivals at fixed spacing 1/rate,
// routes from the weighted mix and tag IDs uniformly over 1..tags, all
// from seed.
func schedule(seed int64, rate, seconds float64, tags int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, m := range defaultMix {
		total += m.weight
	}
	n := int(rate * seconds)
	out := make([]arrival, n)
	for i := range out {
		a := arrival{Due: time.Duration(float64(i) / rate * float64(time.Second))}
		pick := rng.Intn(total)
		for _, m := range defaultMix {
			if pick < m.weight {
				a.Route = m.route
				break
			}
			pick -= m.weight
		}
		if a.Route == "tag" {
			a.ID = 1 + rng.Intn(tags)
		}
		out[i] = a
	}
	return out
}

// outcome is what became of one arrival.
type outcome struct {
	arrival
	ReqID    string
	Late     time.Duration // sent minus due
	RTT      time.Duration // response read minus sent
	Latency  time.Duration // response read minus due
	Code     int           // 0 when no response arrived
	Err      error         // transport error or timeout
	CheckErr error         // a 2xx whose body failed its check
	Age      float64       // inventory age at receipt, seconds
	HasAge   bool
}

// ok reports a checked 2xx (a router 207 included).
func (o *outcome) ok() bool {
	return o.Err == nil && o.CheckErr == nil && o.Code >= 200 && o.Code < 300
}

// newLoadClient is the generator's HTTP client: keep-alive, at most
// maxConns connections, requestTimeout per request.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends sched against base and returns one outcome per
// arrival sent (all of them unless ctx ends first), after every request
// has finished. layer names the spans each request records ("serve" or
// "router") under parent; reqPrefix seeds the X-Request-Id values.
func openLoop(ctx context.Context, client *http.Client, base string, sched []arrival, shape fleetShape,
	tr *tracer, layer string, parent int64, reqPrefix string) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				wg.Wait()
				return out[:i]
			case <-time.After(d):
			}
		}
		sent := time.Now()
		o := &out[i]
		o.arrival, o.Late = a, sent.Sub(due)
		o.ReqID = reqPrefix + strconv.Itoa(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(ctx, client, base, shape, tr, layer, parent, o, due, sent)
		}()
	}
	wg.Wait()
	return out
}

// send issues one request and fills in its outcome.
func send(ctx context.Context, client *http.Client, base string, shape fleetShape,
	tr *tracer, layer string, parent int64, o *outcome, due, sent time.Time) {
	sp := tr.start(layer+".req."+o.Route, parent, o.ReqID)
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+o.path(), nil)
	if err != nil {
		o.Err = err
		return
	}
	req.Header.Set("X-Request-Id", o.ReqID)
	resp, err := client.Do(req)
	if err != nil {
		o.Err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	recv := time.Now()
	o.Code, o.RTT, o.Latency = resp.StatusCode, recv.Sub(sent), recv.Sub(due)
	if err != nil {
		o.Err = fmt.Errorf("read body: %w", err)
		return
	}
	switch {
	case o.Code >= 200 && o.Code < 300:
		o.Age, o.HasAge, o.CheckErr = shape.checkBody(o.Route, o.ID, o.Code, body, recv)
		if o.CheckErr != nil {
			o.CheckErr = fmt.Errorf("%s %s: %w", o.ReqID, o.path(), o.CheckErr)
		}
	case o.Code == http.StatusTooManyRequests || o.Code == http.StatusServiceUnavailable:
		// A refusal the services document for overload: a miss, not a
		// wrong answer.
	default:
		o.CheckErr = fmt.Errorf("%s %s: unexpected status %d", o.ReqID, o.path(), o.Code)
	}
}

// charged is the latency the request enters the distribution with. A
// miss (no answer, a non-2xx or a failed check) is charged as if it had
// timed out, or its observed latency if that is longer, so shedding or
// failing a slow request can never lower a latency percentile.
func (o *outcome) charged() time.Duration {
	if o.ok() {
		return o.Latency
	}
	return max(o.Latency, o.Late+requestTimeout)
}

// loadStats reduces a run's outcomes.
type loadStats struct {
	Sent, OK, Failed, Partial, SLOOK int
	Latency, Late, Age               []float64            // ms (every request, misses charged), ms, s
	RTT                              map[string][]float64 // ms per route, checked 2xx only
	CheckErrs                        []error
}

func reduce(outs []outcome) loadStats {
	s := loadStats{Sent: len(outs), RTT: make(map[string][]float64)}
	for i := range outs {
		o := &outs[i]
		s.Late = append(s.Late, ms(o.Late))
		if o.CheckErr != nil {
			s.CheckErrs = append(s.CheckErrs, o.CheckErr)
		}
		s.Latency = append(s.Latency, ms(o.charged()))
		if !o.ok() {
			s.Failed++
			continue
		}
		s.OK++
		if o.Code == http.StatusMultiStatus {
			s.Partial++
		}
		if o.Latency <= sloLimit {
			s.SLOOK++
		}
		s.RTT[o.Route] = append(s.RTT[o.Route], ms(o.RTT))
		if o.HasAge {
			s.Age = append(s.Age, o.Age)
		}
	}
	return s
}

// lateErr is non-nil when the generator ran too late for the run to
// stand for its schedule.
func (s loadStats) lateErr() error {
	if p := summarize(s.Late); p.N > 0 && p.P99() > ms(maxLateP99) {
		return fmt.Errorf("generator late by %.2f ms at p99 (limit %.0f ms): run invalid", p.P99(), ms(maxLateP99))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
