package main

import (
	"strings"
	"testing"

	"mmtag/internal/par"
)

// The probe cell, rebuilt from copies of net's constants, agrees with
// net's own cell link (net.Deployment.ProbeSINR).
func TestProbeCellAgreesWithNet(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a full deployment")
	}
	pool := par.New(par.Config{Workers: workers})
	defer pool.Close()
	d, r, err := newEpochRunner(epochConfig(pool))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	s := &sweepResult{values: make(map[string]float64)}
	if err := probeCell(d, d.TagStates(), nil, 0, s); err != nil {
		t.Fatal(err)
	}
	if len(s.checkErrs) != 0 || s.failed != 0 {
		t.Fatalf("probe cell disagrees with net: %v", s.checkErrs)
	}
	var note string
	for _, n := range s.notes {
		if strings.Contains(n, "ProbeSINR") {
			note = n
		}
	}
	if note == "" || strings.HasPrefix(note, "rebuilt cells cross-checked against net.ProbeSINR: 0 of") {
		t.Errorf("cross-check compared no tag exactly: %q", note)
	}
	t.Log(note)
}
