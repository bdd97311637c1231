package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchReportFixture() *BenchReport {
	return &BenchReport{
		Label:     "base",
		GoVersion: "go0.0",
		Seed:      42,
		Reps:      3,
		Benchmarks: []BenchResult{
			{Name: "E1", NsOp: 10_000_000, AllocsOp: 10, BytesOp: 100, Rows: 5},
			{Name: "E2", NsOp: 20_000_000, AllocsOp: 0, BytesOp: 0, Rows: 3},
		},
	}
}

func TestCompareBenchClean(t *testing.T) {
	base := benchReportFixture()
	cur := benchReportFixture()
	cur.Benchmarks[0].NsOp = 11_000_000 // +10%, inside a 15% tolerance
	if problems := compareBench(cur, base, 15, 0); len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
}

func TestCompareBenchRegressions(t *testing.T) {
	base := benchReportFixture()

	cur := benchReportFixture()
	cur.Benchmarks[0].NsOp = 12_000_000 // +20% > 15%
	problems := compareBench(cur, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "ns/op regressed") {
		t.Fatalf("ns regression not flagged: %v", problems)
	}
	// The same slowdown passes with a looser gate, and with the time
	// check disabled entirely.
	if problems := compareBench(cur, base, 25, 0); len(problems) != 0 {
		t.Fatalf("25%% tolerance should admit +20%%: %v", problems)
	}
	if problems := compareBench(cur, base, 0, 0); len(problems) != 0 {
		t.Fatalf("tolerance 0 must disable the time check: %v", problems)
	}
	// Sub-millisecond baselines skip the time check entirely: their
	// minima are scheduler noise, not signal.
	cur = benchReportFixture()
	cur.Benchmarks[0].NsOp = 900_000 // below benchNsFloor
	base2 := benchReportFixture()
	base2.Benchmarks[0].NsOp = 300_000
	if problems := compareBench(cur, base2, 15, 0); len(problems) != 0 {
		t.Fatalf("sub-millisecond timing must not gate: %v", problems)
	}

	cur = benchReportFixture()
	cur.Benchmarks[1].AllocsOp = 1 // any alloc increase fails at tolerance 0
	problems = compareBench(cur, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op regressed") {
		t.Fatalf("alloc regression not flagged: %v", problems)
	}

	// A hair of alloc tolerance absorbs GC-timing noise but still
	// catches real growth.
	cur = benchReportFixture()
	cur.Benchmarks[0].AllocsOp = 10 // baseline 10: unchanged passes
	if problems := compareBench(cur, base, 15, 0.01); len(problems) != 0 {
		t.Fatalf("exact counts must pass with tolerance: %v", problems)
	}
	cur.Benchmarks[0].AllocsOp = 11 // +10% >> 0.01%
	problems = compareBench(cur, base, 15, 0.01)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op regressed") {
		t.Fatalf("alloc growth above tolerance not flagged: %v", problems)
	}

	cur = benchReportFixture()
	cur.Benchmarks[0].Rows = 6
	problems = compareBench(cur, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "row count changed") {
		t.Fatalf("row change not flagged: %v", problems)
	}

	cur = benchReportFixture()
	cur.Benchmarks = cur.Benchmarks[:1] // E2 gone
	problems = compareBench(cur, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Fatalf("missing benchmark not flagged: %v", problems)
	}

	// Improvements never fail the gate.
	cur = benchReportFixture()
	cur.Benchmarks[0].NsOp = 1
	cur.Benchmarks[0].AllocsOp = 0
	if problems := compareBench(cur, base, 15, 0); len(problems) != 0 {
		t.Fatalf("improvement flagged as regression: %v", problems)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := benchReportFixture()
	if err := writeBenchReport(want, path, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != want.Label || got.Seed != want.Seed || len(got.Benchmarks) != len(want.Benchmarks) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range want.Benchmarks {
		if got.Benchmarks[i] != want.Benchmarks[i] {
			t.Fatalf("benchmark %d: %+v != %+v", i, got.Benchmarks[i], want.Benchmarks[i])
		}
	}
}

func TestLoadBenchReportErrors(t *testing.T) {
	if _, err := loadBenchReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchReport(bad); err == nil {
		t.Fatal("malformed file must error")
	}
}

// TestRunBenchJSONEndToEnd measures a fast experiment, persists the
// report, and gates a second measurement against it with a forgiving
// time tolerance — the full -benchjson/-benchcompare loop.
func TestRunBenchJSONEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_t3.json")
	if err := runBenchJSON("T3", 42, "test", path, 2, "", 0, 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	report, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "T3" {
		t.Fatalf("unexpected report: %+v", report)
	}
	if report.Benchmarks[0].NsOp <= 0 || report.Benchmarks[0].Rows == 0 {
		t.Fatalf("implausible measurement: %+v", report.Benchmarks[0])
	}
	// Re-measure and compare against the file just written. Wall time is
	// noisy at this scale, so the gate runs with the time check off; the
	// alloc and row-count checks still bite. Under the race detector
	// allocs/op jitters (sync.Pool sheds at random there), so the strict
	// self-comparison only runs in plain mode.
	if raceEnabled {
		t.Skip("allocs/op is nondeterministic under the race detector")
	}
	if err := runBenchJSON("T3", 42, "test", "", 2, path, 0, 0, io.Discard); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
}

// TestRunBenchJSONKeepsOtherSuites refreshes one suite of a combined
// baseline: the measured rows are replaced, rows of suites the run did
// not measure (here a load row) survive.
func TestRunBenchJSONKeepsOtherSuites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_combined.json")
	old := &BenchReport{Label: "old", Benchmarks: []BenchResult{
		{Name: "T3", NsOp: 1, AllocsOp: 1, Rows: 1},
		{Name: "LOAD/inventory-mix", Suite: "load", NsOp: 100, BytesOp: 20},
	}}
	if err := writeBenchReport(old, path, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runBenchJSON("T3", 42, "test", path, 1, "", 0, 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "test" || len(got.Benchmarks) != 2 {
		t.Fatalf("unexpected report: %+v", got)
	}
	for _, b := range got.Benchmarks {
		switch b.Name {
		case "T3":
			if b.Rows == 1 {
				t.Errorf("T3 row not re-measured: %+v", b)
			}
		case "LOAD/inventory-mix":
			if b != old.Benchmarks[1] {
				t.Errorf("load row changed: %+v", b)
			}
		default:
			t.Errorf("unexpected row %+v", b)
		}
	}
}

// TestRunBenchJSONEpochRow measures the serve suite's one row,
// SERVE/epoch-8ap-64tag: a per-Step cost and the discovered tag count.
func TestRunBenchJSONEpochRow(t *testing.T) {
	b, err := measureEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != epochBenchName || b.Suite != "serve" || b.NsOp <= 0 || b.Rows < 1 || b.Rows > 64 {
		t.Fatalf("implausible epoch row: %+v", b)
	}
}
