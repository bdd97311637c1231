package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "load.phase", Start: 0, End: 100},
		// Two overlapping requests cover 10..60 of the phase.
		{ID: 2, Parent: 1, Name: "serve.req.tags", Start: 10, End: 50, ReqID: "a"},
		{ID: 3, Parent: 1, Name: "serve.req.tag", Start: 30, End: 60, ReqID: "b"},
		// A child running past its parent counts only inside it.
		{ID: 4, Name: "net.steps", Start: 200, End: 300},
		{ID: 5, Parent: 4, Name: "net.step", Start: 250, End: 350},
	}
	got := make(map[string]layerTime)
	for _, r := range selfTimes(spans) {
		got[r.Layer] = r
	}
	want := map[string]layerTime{
		"load":  {Layer: "load", Spans: 1, Total: 100, Self: 50},
		"serve": {Layer: "serve", Spans: 2, Total: 70, Self: 70},
		"net":   {Layer: "net", Spans: 2, Total: 200, Self: 150},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times\n got %+v\nwant %+v", got, want)
	}
}

func TestTracerRecordsNestedSpansAndWritesThem(t *testing.T) {
	tr := newTracer()
	root := tr.start("eval.probe", 0, "")
	child := tr.start("eval.E3", root.ID(), "")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	open := tr.start("eval.never_closed", 0, "")
	_ = open
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].End <= spans[1].Start {
		t.Fatalf("spans %+v: want a closed child under its root", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}
	var nilTracer *tracer
	nilTracer.start("x", 0, "").End() // untraced runs call through a nil tracer
}

func TestScheduleIsFixedRateAndSeeded(t *testing.T) {
	a := schedule(5, 100, 20, fleetTags)
	b := schedule(5, 100, 20, fleetTags)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(6, 100, 20, fleetTags)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 2000 || a[1].Due != 10*time.Millisecond || a[1999].Due != 19990*time.Millisecond {
		t.Fatalf("schedule has %d arrivals, due %v and %v; want 2000 every 10ms", len(a), a[1].Due, a[1999].Due)
	}
	count := make(map[string]int)
	for _, x := range a {
		count[x.Route]++
		if x.Route == "tag" && (x.ID < 1 || x.ID > fleetTags) {
			t.Fatalf("tag ID %d outside 1..%d", x.ID, fleetTags)
		}
	}
	// Mix tags=2,tag=4,report=1,status=1: expect 500/1000/250/250.
	for route, want := range map[string]int{"tags": 500, "tag": 1000, "report": 250, "status": 250} {
		if got := count[route]; got < want*8/10 || got > want*12/10 {
			t.Errorf("%s: %d of 2000, want about %d", route, got, want)
		}
	}
}

func TestMoreStopsClosestToTheRunLength(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		elapsed, last time.Duration
		want          bool
	}{
		{16 * s, 8 * s, true},  // a third run ends at 24 s: closer to 25
		{24 * s, 8 * s, false}, // a fourth would end at 32 s
		{20 * s, 20 * s, false},
		{0, 0, true},
	} {
		if got := more(c.elapsed, c.last, 25); got != c.want {
			t.Errorf("more(%v, %v, 25) = %v", c.elapsed, c.last, got)
		}
	}
}
