package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Name is the per-layer metric it feeds (layer prefix before
// the first '.'); ReqID is set on HTTP requests.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ReqID  string `json:"req_id,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs call the same
// code paths.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is one open span; End closes it. The zero value (from a nil
// tracer) is inert.
type active struct {
	t  *tracer
	id int64
	sp span
}

// start opens a span under parent (0 = root).
func (t *tracer) start(name string, parent int64, reqID string) active {
	if t == nil {
		return active{}
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id}) // reserve the slot
	t.mu.Unlock()
	return active{t: t, id: id, sp: span{ID: id, Parent: parent, Name: name, ReqID: reqID, Start: time.Since(t.epoch).Nanoseconds()}}
}

// End records the span.
func (a active) End() {
	if a.t == nil {
		return
	}
	a.sp.End = time.Since(a.t.epoch).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans[a.id-1] = a.sp
	a.t.mu.Unlock()
}

// ID is the span's identifier, for children (0 from a nil tracer).
func (a active) ID() int64 { return a.id }

// snapshot returns the recorded spans (closed ones only).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name != "" {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the layer a span belongs to: its name up to the first '.'.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per layer, each span's duration and its self time:
// the duration minus the part of its interval its children cover
// (overlapping children, such as concurrent requests, count once).
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerTime{Layer: l}
			rows[l] = r
		}
		dur := s.End - s.Start
		r.Spans++
		r.Total += time.Duration(dur)
		r.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "\nself time per layer (%d spans):\n", len(spans))
	fmt.Fprintf(w, "  %-10s %7s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-10s %7d %12.3f %12.3f\n", r.Layer, r.Spans,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}
