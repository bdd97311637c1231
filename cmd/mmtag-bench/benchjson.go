package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"strings"
	"time"

	"mmtag/internal/benchfmt"
	"mmtag/internal/eval"
	"mmtag/internal/par"
)

// BenchResult is one experiment's steady-state cost: wall time and heap
// traffic for a full table regeneration at a fixed seed. Each field is
// the minimum over the measurement reps, so one-time costs (FFT plan
// construction, pool warm-up) and scheduling noise drop out. The wire
// schema lives in internal/benchfmt, shared with mmtag-load's latency
// rows.
type BenchResult = benchfmt.Result

// BenchReport is the persisted benchmark file format (BENCH_<label>.json).
type BenchReport = benchfmt.Report

// measureBench runs each experiment reps times on a single-worker pool
// (serial execution keeps allocation counts deterministic) and keeps the
// per-field minimum. Allocation figures come from runtime.MemStats
// deltas around the run. Before the reps, a forced GC settles the heap
// and one unmeasured run absorbs the one-time costs (FFT plans, caches,
// sync.Pool refills). No GC is forced between reps: a GC empties every
// sync.Pool, and which pooled objects the next run gets back depends on
// the processor its goroutine lands on, so each rep after a forced GC
// would jitter by a few allocs/op.
func measureBench(label string, ids []string, seed int64, reps int) (*BenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	pool := par.New(par.Config{Workers: 1})
	defer pool.Close()
	x := eval.Exec{Pool: pool}
	report := &BenchReport{Label: label, GoVersion: runtime.Version(), Seed: seed, Reps: reps}
	var ms runtime.MemStats
	for _, id := range ids {
		runtime.GC()
		if _, err := eval.RunExperiment(x, id, nil, seed); err != nil {
			return nil, fmt.Errorf("bench %s: %w", id, err)
		}
		var best BenchResult
		for r := 0; r < reps; r++ {
			runtime.ReadMemStats(&ms)
			mallocs, bytes := ms.Mallocs, ms.TotalAlloc
			start := time.Now()
			tables, err := eval.RunExperiment(x, id, nil, seed)
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", id, err)
			}
			runtime.ReadMemStats(&ms)
			rows := 0
			for _, t := range tables {
				rows += len(t.Rows)
			}
			cur := BenchResult{
				Name:     id,
				NsOp:     ns,
				AllocsOp: ms.Mallocs - mallocs,
				BytesOp:  ms.TotalAlloc - bytes,
				Rows:     rows,
			}
			if r == 0 {
				best = cur
				continue
			}
			if cur.NsOp < best.NsOp {
				best.NsOp = cur.NsOp
			}
			if cur.AllocsOp < best.AllocsOp {
				best.AllocsOp = cur.AllocsOp
			}
			if cur.BytesOp < best.BytesOp {
				best.BytesOp = cur.BytesOp
			}
		}
		report.Benchmarks = append(report.Benchmarks, best)
	}
	return report, nil
}

// writeBenchReport renders the report as indented JSON to path
// ("-" = stdout).
func writeBenchReport(report *BenchReport, path string, w io.Writer) error {
	return benchfmt.Write(report, path, w)
}

// loadBenchReport reads a BENCH_*.json file.
func loadBenchReport(path string) (*BenchReport, error) {
	return benchfmt.Load(path)
}

// compareBench checks cur against base under the shared gate rules
// (see benchfmt.Compare); mmtag-bench only measures the eval suite, so
// load rows in a combined baseline are out of scope here.
func compareBench(cur, base *BenchReport, nsTolPct, allocsTolPct float64) []string {
	return benchfmt.Compare(cur, base, nsTolPct, allocsTolPct)
}

// keepOtherSuites returns the report to write to path. When path
// already holds a report, its rows from suites this run did not measure
// (the mmtag-load latency rows of a combined baseline) are kept, so
// refreshing the eval rows never drops another tool's gate.
func keepOtherSuites(report *BenchReport, path string) (*BenchReport, error) {
	if path == "-" {
		return report, nil
	}
	old, err := loadBenchReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		return report, nil
	}
	if err != nil {
		return nil, err
	}
	merged := *report
	merged.Benchmarks = benchfmt.MergeRows(old, report)
	return &merged, nil
}

// runBenchJSON is the -benchjson / -benchcompare entry point: measure,
// optionally persist, optionally gate against a committed baseline.
// Returns an error whose message lists every regression when the gate
// fails.
func runBenchJSON(id string, seed int64, label, outPath string, reps int, comparePath string, nsTolPct, allocsTolPct float64, w io.Writer) error {
	ids := []string{id}
	withTput, withEpoch := false, false
	switch {
	case strings.EqualFold(id, "all"):
		ids = eval.ExperimentIDs()
		withTput, withEpoch = true, true
	case strings.EqualFold(id, "chaos"):
		ids = eval.ChaosExperimentIDs()
	case strings.EqualFold(id, "tput"):
		// Throughput suite only: the per-core tags·symbols/sec rows
		// (TPUT/E3, TPUT/E9, TPUT/E11 and the batch microbenchmark).
		ids = nil
		withTput = true
	}
	report, err := measureBench(label, ids, seed, reps)
	if err != nil {
		return err
	}
	if withTput {
		tput, err := measureTput(seed, reps)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, tput...)
	}
	if withEpoch {
		epoch, err := measureEpoch(reps)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, epoch)
	}
	if outPath != "" {
		persist, err := keepOtherSuites(report, outPath)
		if err != nil {
			return err
		}
		if err := writeBenchReport(persist, outPath, w); err != nil {
			return err
		}
	}
	if comparePath == "" {
		return nil
	}
	base, err := loadBenchReport(comparePath)
	if err != nil {
		return err
	}
	problems := compareBench(report, base, nsTolPct, allocsTolPct)
	if len(problems) == 0 {
		fmt.Fprintf(w, "benchmark gate: %d benchmarks within baseline %s\n", len(base.Benchmarks), comparePath)
		return nil
	}
	return fmt.Errorf("benchmark regression vs %s:\n  %s", comparePath, strings.Join(problems, "\n  "))
}
