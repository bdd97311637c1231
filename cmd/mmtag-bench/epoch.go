package main

import (
	"fmt"
	"runtime"
	"time"

	"mmtag/internal/net"
	"mmtag/internal/par"
	"mmtag/internal/serve"
)

// The "serve" benchmark suite holds the daemon's epoch cost: one row,
// SERVE/epoch-8ap-64tag, for the deployment `mmtag-serve -aps 8 -tags
// 64` hosts at its other flag defaults, stepped in-process through
// net.Runner. Row semantics (see internal/benchfmt): NsOp and AllocsOp
// are wall nanoseconds and heap allocations per Runner.Step, BytesOp
// heap bytes per Step — each the minimum over the reps — and Rows the
// tags the final epoch's inventory discovered, so a change in what the
// epochs compute fails the exact row-count gate. The cells run on a
// single worker, as every eval row does, so allocation counts do not
// depend on the schedule.

const (
	// epochBenchName is the serve suite's one row.
	epochBenchName = "SERVE/epoch-8ap-64tag"
	// epochBenchSteps is how many Steps one rep times, after one
	// untimed warm-up Step (the first epoch also runs discovery).
	epochBenchSteps = 8
)

// measureEpoch produces the serve suite row.
func measureEpoch(reps int) (BenchResult, error) {
	if reps < 1 {
		reps = 1
	}
	pool := par.New(par.Config{Workers: 1})
	defer pool.Close()
	var best BenchResult
	var ms runtime.MemStats
	for r := 0; r < reps; r++ {
		// The deployment mmtag-serve -aps 8 -tags 64 hosts at its
		// other flag defaults.
		cfg := serve.DefaultNetConfig()
		cfg.APs, cfg.Tags, cfg.Pool = 8, 64, pool
		d, err := net.New(cfg)
		if err != nil {
			return BenchResult{}, fmt.Errorf("bench %s: %w", epochBenchName, err)
		}
		run := d.Runner(serve.DefaultHandoffLog)
		if err := run.Step(); err != nil {
			return BenchResult{}, fmt.Errorf("bench %s: %w", epochBenchName, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		for i := 0; i < epochBenchSteps; i++ {
			if err := run.Step(); err != nil {
				return BenchResult{}, fmt.Errorf("bench %s: %w", epochBenchName, err)
			}
		}
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms)
		cur := BenchResult{
			Name:     epochBenchName,
			Suite:    "serve",
			NsOp:     ns / epochBenchSteps,
			AllocsOp: (ms.Mallocs - mallocs) / epochBenchSteps,
			BytesOp:  (ms.TotalAlloc - bytes) / epochBenchSteps,
			Rows:     run.Snapshot().Discovered,
		}
		if r == 0 {
			best = cur
			continue
		}
		best.NsOp = min(best.NsOp, cur.NsOp)
		best.AllocsOp = min(best.AllocsOp, cur.AllocsOp)
		best.BytesOp = min(best.BytesOp, cur.BytesOp)
	}
	return best, nil
}
