package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var serveShape = fleetShape{APs: fleetAPs, Tags: fleetTags}

func tagsBody(ids ...int) string {
	var parts []string
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf(`{"id":%d}`, id))
	}
	return `{"epoch":3,"taken_at":"` + time.Now().UTC().Format(time.RFC3339Nano) + `","tags":[` + strings.Join(parts, ",") + `]}`
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestCheckBodyAcceptsWellFormedBodies(t *testing.T) {
	now := time.Now()
	at := now.Add(-300 * time.Millisecond).UTC().Format(time.RFC3339Nano)
	cells := strings.TrimSuffix(strings.Repeat(`{"AP":0},`, fleetAPs), ",")
	cases := []struct {
		shape fleetShape
		route string
		id    int
		code  int
		body  string
	}{
		{serveShape, "tags", 0, 200, tagsBody(seq(fleetTags)...)},
		{serveShape, "tag", 7, 200, `{"epoch":3,"taken_at":"` + at + `","tag":{"id":7}}`},
		{serveShape, "report", 0, 200, `{"epoch":3,"taken_at":"` + at + `","report":{"APs":8,"Tags":64,"Cells":[` + cells + `]}}`},
		{serveShape, "status", 0, 200, `{"state":"serving","epoch":3}`},
		{fleetShape{8, 64, true}, "tags", 0, 200, `{"shards_total":4,"shards_ok":4,` + strings.TrimPrefix(tagsBody(seq(64)...), "{")},
		{fleetShape{8, 64, true}, "tags", 0, 207, `{"shards_total":4,"shards_ok":3,"tags":[{"id":17},{"id":18}]}`},
		{fleetShape{8, 64, true}, "report", 0, 200, `{"shards_total":4,"shards_ok":4,"report":{"aps":8,"tags":64}}`},
		{fleetShape{8, 64, true}, "status", 0, 200, `{"state":"serving","shards_total":4,"shards_ok":4}`},
	}
	for i, c := range cases {
		if _, _, err := c.shape.checkBody(c.route, c.id, c.code, []byte(c.body), now); err != nil {
			t.Errorf("case %d (%s): %v", i, c.route, err)
		}
	}
	a, ok, err := serveShape.checkBody("tag", 7, 200, []byte(cases[1].body), now)
	if err != nil || !ok || a < 0.29 || a > 0.31 {
		t.Errorf("age = %g (ok %v, err %v), want 0.3 s", a, ok, err)
	}
}

func TestCheckBodyRejectsWrongOutputs(t *testing.T) {
	now := time.Now()
	at := now.UTC().Format(time.RFC3339Nano)
	shuffled := seq(fleetTags)
	shuffled[3], shuffled[4] = shuffled[4], shuffled[3]
	cases := []struct {
		shape fleetShape
		route string
		id    int
		code  int
		body  string
	}{
		{serveShape, "tag", 7, 200, `{"epoch":3,"taken_at":"` + at + `","tag":{"id":8}}`},
		{serveShape, "tag", 7, 200, `{"epoch":3,"taken_at":"` + at + `","tag":{}}`},
		{serveShape, "tags", 0, 200, tagsBody(seq(fleetTags - 1)...)},
		{serveShape, "tags", 0, 200, tagsBody(shuffled...)},
		{serveShape, "tags", 0, 200, `not json`},
		{serveShape, "report", 0, 200, `{"epoch":3,"taken_at":"` + at + `","report":{"APs":8,"Tags":64,"Cells":[]}}`},
		{serveShape, "status", 0, 200, `{"state":"draining","epoch":3}`},
		{serveShape, "tags", 0, 207, tagsBody(seq(fleetTags)...)},
		{fleetShape{8, 64, true}, "tags", 0, 200, `{"shards_total":4,"shards_ok":3,"tags":[]}`},
		{fleetShape{8, 64, true}, "report", 0, 200, `{"shards_total":4,"shards_ok":4,"report":{"aps":6,"tags":64}}`},
	}
	for i, c := range cases {
		if _, _, err := c.shape.checkBody(c.route, c.id, c.code, []byte(c.body), now); err == nil {
			t.Errorf("case %d (%s %s) passed its check", i, c.route, truncate([]byte(c.body)))
		}
	}
}

// A daemon that answers /v1/tags/{id} with the wrong tag must fail the
// whole run: the request counts as failed and the result as incorrect.
func TestWrongTagIDFailsTheRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		at := time.Now().UTC().Format(time.RFC3339Nano)
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/tags/"):
			fmt.Fprintf(w, `{"epoch":2,"taken_at":%q,"tag":{"id":1}}`, at) // always tag 1
		case r.URL.Path == "/v1/tags":
			io.WriteString(w, tagsBody(seq(fleetTags)...))
		case r.URL.Path == "/v1/report":
			cells := strings.TrimSuffix(strings.Repeat(`{},`, fleetAPs), ",")
			fmt.Fprintf(w, `{"epoch":2,"taken_at":%q,"report":{"APs":8,"Tags":64,"Cells":[%s]}}`, at, cells)
		default:
			io.WriteString(w, `{"state":"serving","epoch":2}`)
		}
	}))
	defer srv.Close()
	fake := workload{name: "fake", opName: "request", run: func(e *env, tr *tracer, s float64) (*wlResult, error) {
		client := newLoadClient()
		defer client.CloseIdleConnections()
		st := reduce(openLoop(context.Background(), client, srv.URL, schedule(e.seed, 200, s, fleetTags), serveShape, tr, "serve", 0, "t-"))
		return &wlResult{setupS: []float64{1}, rssMiB: 1, opMS: st.Latency, attempted: st.Sent, failed: st.Failed, checkErrs: st.CheckErrs, load: &st}, nil
	}}
	res, err := measure(fake, &env{seed: 7, log: io.Discard}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 {
		t.Fatalf("run with wrong tag IDs: correct=%v failed=%d, want incorrect with failures", res.correct, res.failed)
	}
	line, err := resultJSON(res)
	if err != nil || !strings.Contains(line, `"correct":false`) {
		t.Errorf("result line %q (err %v) does not report the failure", line, err)
	}
}

// A serial reference that disagrees with the run's final state must
// fail the epoch run.
func TestCorruptedEpochDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a full deployment")
	}
	e := &env{repo: "..", out: t.TempDir(), log: io.Discard}
	path, err := e.refPath("epoch")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSONAtomic(path, reference{Digest: strings.Repeat("0", 64)}); err != nil {
		t.Fatal(err)
	}
	r, err := runEpoch(e, nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.checkErrs) != 1 || r.failed != 1 || !strings.Contains(r.checkErrs[0].Error(), "serial reference") {
		t.Fatalf("corrupted reference: checkErrs=%v failed=%d, want one digest failure", r.checkErrs, r.failed)
	}
}

func TestCheckDigest(t *testing.T) {
	if err := checkDigest("x", "ab", "ab"); err != nil {
		t.Error(err)
	}
	if err := checkDigest("x", "ab", "ac"); err == nil {
		t.Error("differing digests passed")
	}
}

func TestSourceHashSeesEdits(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []string{"go.mod", "internal/a/a.go", "cmd/c/main.go"} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, p)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, p), []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h1, err := sourceHash(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal/a/a.go"), []byte("changed"), 0o644); err != nil {
		t.Fatal(err)
	}
	h2, err := sourceHash(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("source hash unchanged after an edit: a stale reference would be reused")
	}
}
