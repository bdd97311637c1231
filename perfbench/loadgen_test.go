package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// stubDaemon answers every route with a well-formed body, except
// /v1/tags, which tags handles.
func stubDaemon(tags http.HandlerFunc) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		at := time.Now().UTC().Format(time.RFC3339Nano)
		switch {
		case r.URL.Path == "/v1/tags":
			tags(w, r)
		case strings.HasPrefix(r.URL.Path, "/v1/tags/"):
			fmt.Fprintf(w, `{"epoch":2,"taken_at":%q,"tag":{"id":%s}}`, at, strings.TrimPrefix(r.URL.Path, "/v1/tags/"))
		case r.URL.Path == "/v1/report":
			cells := strings.TrimSuffix(strings.Repeat(`{},`, fleetAPs), ",")
			fmt.Fprintf(w, `{"epoch":2,"taken_at":%q,"report":{"APs":8,"Tags":64,"Cells":[%s]}}`, at, cells)
		default:
			io.WriteString(w, `{"state":"serving","epoch":2}`)
		}
	}))
}

// driveStub sends one second of the open-loop mix to srv and reduces it.
func driveStub(t *testing.T, srv *httptest.Server) loadStats {
	t.Helper()
	client := newLoadClient()
	defer client.CloseIdleConnections()
	return reduce(openLoop(context.Background(), client, srv.URL, schedule(3, 100, 1, fleetTags), serveShape, nil, "serve", 0, "t-"))
}

// A daemon that sheds its slowest route with fast 429s must not read
// faster than one that answers it slowly: every sent request is in the
// latency distribution, a miss at no less than the request timeout.
func TestSheddingDoesNotLowerTheTail(t *testing.T) {
	slow := stubDaemon(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		io.WriteString(w, tagsBody(seq(fleetTags)...))
	})
	defer slow.Close()
	shed := stubDaemon(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	})
	defer shed.Close()

	a, b := driveStub(t, slow), driveStub(t, shed)
	if a.Failed != 0 || len(a.CheckErrs) != 0 {
		t.Fatalf("slow daemon: %d failed, check errors %v", a.Failed, a.CheckErrs)
	}
	if b.Failed == 0 || len(b.CheckErrs) != 0 {
		t.Fatalf("shedding daemon: %d failed, check errors %v; want misses that are not wrong answers", b.Failed, b.CheckErrs)
	}
	if len(b.Latency) != b.Sent {
		t.Fatalf("%d latencies for %d requests sent: misses left out", len(b.Latency), b.Sent)
	}
	pa, pb := summarize(a.Latency).P90, summarize(b.Latency).P90
	if pb < pa {
		t.Errorf("op_p90 fell from %.2f ms to %.2f ms by shedding with 429", pa, pb)
	}
	if pb < ms(requestTimeout) {
		t.Errorf("shedding daemon's p90 %.2f ms is below the %v a miss is charged", pb, requestTimeout)
	}
}

// A status no service documents (here 500) is a wrong answer: it fails
// the run, unlike a 429 or 503 refusal.
func TestUnexpectedStatusFailsTheCheck(t *testing.T) {
	srv := stubDaemon(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	defer srv.Close()
	st := driveStub(t, srv)
	if len(st.CheckErrs) == 0 || st.Failed != len(st.CheckErrs) {
		t.Fatalf("500s on /v1/tags: %d failed, %d check errors; want each a failed check", st.Failed, len(st.CheckErrs))
	}
	if !strings.Contains(st.CheckErrs[0].Error(), "unexpected status 500") {
		t.Errorf("check error %q does not name the status", st.CheckErrs[0])
	}
}

func TestMissesAreChargedAtLeastTheTimeout(t *testing.T) {
	cases := []struct {
		o    outcome
		want time.Duration
	}{
		{outcome{Code: 200, Latency: 5 * time.Millisecond}, 5 * time.Millisecond},
		{outcome{Code: 429, Latency: time.Millisecond, Late: 3 * time.Millisecond}, requestTimeout + 3*time.Millisecond},
		{outcome{Err: context.DeadlineExceeded, Latency: 0}, requestTimeout},
		{outcome{Code: 503, Latency: 3 * time.Second}, 3 * time.Second},
		{outcome{Code: 200, Latency: time.Millisecond, CheckErr: fmt.Errorf("wrong id")}, requestTimeout},
	}
	for i, c := range cases {
		if got := c.o.charged(); got != c.want {
			t.Errorf("case %d: charged %v, want %v", i, got, c.want)
		}
	}
}
