package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fleet shapes of the service workloads: the flags mmtag-serve and
// mmtag-router run with.
const (
	fleetAPs    = 8
	fleetTags   = 64
	fleetSeed   = 42
	routerShard = 4
)

// proc is one launched service binary listening on a loopback port.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer  // read only after done is closed
	done   chan struct{} // closed once Wait returned
}

var listenURL = regexp.MustCompile(`on (http://127\.0\.0\.1:[0-9]+)`)

// startProc launches bin with args and waits for the start-up line that
// names its listen URL.
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{name: filepath.Base(bin), cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// Should the benchmark itself die (a timeout kill, a crash), the
	// kernel kills its services too, so none is left running to skew
	// later measurements.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	urlW := &urlWatcher{found: make(chan string, 1)}
	p.cmd.Stdout = urlW
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		p.cmd.Wait() //nolint:errcheck // exit status is read in stop
		close(p.done)
	}()
	select {
	case p.url = <-urlW.found:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %s", p.name, strings.TrimSpace(p.stderr.String()))
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s printed no listen address within 30s", p.name)
	}
}

// urlWatcher is a process's stdout: it hands the first listen URL it
// sees to found and discards the rest.
type urlWatcher struct {
	buf   []byte
	sent  bool
	found chan string
}

func (w *urlWatcher) Write(b []byte) (int, error) {
	if w.sent {
		return len(b), nil
	}
	w.buf = append(w.buf, b...)
	if m := listenURL.FindSubmatch(w.buf); m != nil {
		w.found <- string(m[1])
		w.sent, w.buf = true, nil
	}
	return len(b), nil
}

// peakRSSMiB reads the process's VmHWM.
func (p *proc) peakRSSMiB() (float64, error) {
	return peakRSSOf(strconv.Itoa(p.cmd.Process.Pid))
}

// peakRSSOf reads VmHWM from /proc/<pid>/status ("self" for this
// process), in MiB.
func peakRSSOf(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stop sends SIGTERM (the services drain and exit 0) and waits; a
// process that outlives 20s is killed.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-p.done
		return nil // already gone
	}
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for 20s", p.name)
	}
	if st := p.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("%s exited %v: %s", p.name, st, strings.TrimSpace(p.stderr.String()))
	}
	return nil
}

func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // best effort; Wait reaps it
	<-p.done
}

// fleet is one running service under test: a single daemon, or a
// router over its shards.
type fleet struct {
	front  string  // URL the load is sent to
	shards []*proc // the daemons, in shard-index order
	router *proc   // nil for a single daemon
	shape  fleetShape
	setupS float64
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.shards
	}
	return append([]*proc{f.router}, f.shards...)
}

// stop stops every process, router first, and reports the first error.
func (f *fleet) stop() error {
	var first error
	for _, p := range f.procs() {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kill ends every process at once: for fleets launched only to time
// set-up, whose drain (which waits out the running epoch) is not
// measured.
func (f *fleet) kill() {
	for _, p := range f.procs() {
		p.kill()
	}
}

// peakRSSMiB sums VmHWM over the fleet.
func (f *fleet) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, p := range f.procs() {
		v, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// serveArgs is the mmtag-serve command line at its defaults for the
// 8-AP, 64-tag fleet; shard "" runs it standalone.
func serveArgs(shard string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-aps", strconv.Itoa(fleetAPs),
		"-tags", strconv.Itoa(fleetTags), "-seed", strconv.Itoa(fleetSeed)}
	if shard != "" {
		args = append(args, "-shard", shard)
	}
	return args
}

// launch starts the service (router=false: one daemon; true: four
// shards behind mmtag-router) and waits until its front door serves a
// snapshot with epoch >= 1. setupS is that wait, from the first exec.
func launch(binDir string, router bool) (*fleet, error) {
	f := &fleet{shape: fleetShape{APs: fleetAPs, Tags: fleetTags, Router: router}}
	start := time.Now()
	if !router {
		p, err := startProc(filepath.Join(binDir, "mmtag-serve"), serveArgs("")...)
		if err != nil {
			return nil, err
		}
		f.shards, f.front = []*proc{p}, p.url
	} else {
		f.shards = make([]*proc, routerShard)
		errs := make([]error, routerShard)
		var wg sync.WaitGroup
		for i := range f.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f.shards[i], errs[i] = startProc(filepath.Join(binDir, "mmtag-serve"),
					serveArgs(fmt.Sprintf("%d/%d", i, routerShard))...)
			}(i)
		}
		wg.Wait()
		var urls []string
		for i, p := range f.shards {
			if errs[i] != nil {
				for _, q := range f.shards {
					if q != nil {
						q.kill()
					}
				}
				return nil, errs[i]
			}
			urls = append(urls, p.url)
		}
		rp, err := startProc(filepath.Join(binDir, "mmtag-router"), "-addr", "127.0.0.1:0",
			"-aps", strconv.Itoa(fleetAPs), "-tags", strconv.Itoa(fleetTags), "-shards", strings.Join(urls, ","))
		if err != nil {
			f.stop() //nolint:errcheck
			return nil, err
		}
		f.router, f.front = rp, rp.url
	}
	if err := f.waitReady(60 * time.Second); err != nil {
		f.stop() //nolint:errcheck
		return nil, err
	}
	f.setupS = time.Since(start).Seconds()
	return f, nil
}

// waitReady polls the front door's /v1/tags until every shard behind it
// has published an epoch >= 1 snapshot.
func (f *fleet) waitReady(limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for {
		if f.ready(ctx, client) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not serving an epoch >= 1 snapshot within %s", f.front, limit)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (f *fleet) ready(ctx context.Context, client *http.Client) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.front+"/v1/tags", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var b struct {
		Epoch  int `json:"epoch"`
		Shards []struct {
			OK    bool `json:"ok"`
			Epoch int  `json:"epoch"`
		} `json:"shards"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&b) != nil {
		return false
	}
	if f.router == nil {
		return b.Epoch >= 1
	}
	if len(b.Shards) != routerShard {
		return false
	}
	for _, s := range b.Shards {
		if !s.OK || s.Epoch < 1 {
			return false
		}
	}
	return true
}

// scrapeCounter sums every sample of a counter family on url's
// Prometheus /metrics page.
func scrapeCounter(client *http.Client, url, family string) (float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s/metrics: %s", url, resp.Status)
	}
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", family, err)
		}
		total += v
	}
	return total, sc.Err()
}
