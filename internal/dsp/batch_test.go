package dsp

import (
	"math/rand"
	"testing"
)

func fillLane(b *Batch, l int, vals []complex128) {
	b.SetLaneLen(l, len(vals))
	copy(b.LaneCap(l), vals)
}

// newBatch returns a batch of lanes empty lanes of capacity stride.
func newBatch(lanes, stride int) *Batch {
	b := &Batch{}
	b.Reset(lanes, stride)
	return b
}

// CrossCorrelateBatch must be bit-identical per lane to serial
// CrossCorrelateTo, kernel and package-level alike, across direct-method
// lanes, FFT-method lanes, mixed batches with ragged lane lengths, and
// lanes too short to correlate.
func TestCrossCorrelateBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{4, 63} {
		ref := randSignal(rng, m)
		kern := NewCorrKernel(ref)
		cases := [][]int{
			{m + 5},                             // single direct lane
			{400, 400, 400},                     // FFT lanes, same size
			{m - 1},                             // too short: empty row
			{m + 2, 400, 130, m - 1, 399, 1200}, // mixed sizes and methods
			{64, 64, 64, 64, 64, 64, 64},
		}
		for ci, ns := range cases {
			stride := 0
			for _, n := range ns {
				if n > stride {
					stride = n
				}
			}
			x := newBatch(len(ns), stride)
			out := newBatch(len(ns), stride)
			for l, n := range ns {
				fillLane(x, l, randSignal(rng, n))
			}
			ar := &Arena{}
			kern.CrossCorrelateBatch(out, x, ar)
			for l, n := range ns {
				want := kern.CrossCorrelateTo(nil, x.Lane(l), nil)
				plain := CrossCorrelateTo(nil, x.Lane(l), ref, nil)
				got := out.Lane(l)
				if n < m {
					if len(got) != 0 {
						t.Fatalf("m=%d case=%d lane=%d: want empty, got %d", m, ci, l, len(got))
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("m=%d case=%d lane=%d: len %d != %d", m, ci, l, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] || plain[k] != want[k] {
						t.Fatalf("m=%d case=%d lane=%d lag=%d: batch %v, kernel %v, package %v",
							m, ci, l, k, got[k], want[k], plain[k])
					}
				}
			}
		}
	}
}

// The batched kernels must allocate nothing in steady state when fed a
// warmed arena and reused batches, like TestHotKernelsZeroAlloc.
func TestBatchKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	ref := randSignal(rng, 63)
	kern := NewCorrKernel(ref)
	const lanes, n = 16, 400
	x := newBatch(lanes, n)
	out := newBatch(lanes, n)
	for l := 0; l < lanes; l++ {
		fillLane(x, l, randSignal(rng, n))
	}
	ar := &Arena{}
	kern.CrossCorrelateBatch(out, x, ar) // warm arena + spectrum cache
	allocs := testing.AllocsPerRun(20, func() {
		kern.CrossCorrelateBatch(out, x, ar)
	})
	if allocs != 0 {
		t.Fatalf("CrossCorrelateBatch allocates %v per run, want 0", allocs)
	}
}

func TestBatchReuseShrinksAndGrows(t *testing.T) {
	b := newBatch(4, 100)
	fillLane(b, 3, randSignal(rand.New(rand.NewSource(1)), 100))
	b.Reset(2, 50)
	if b.Lanes() != 2 || b.Stride() != 50 {
		t.Fatalf("reset shape: %d lanes stride %d", b.Lanes(), b.Stride())
	}
	if len(b.Lane(0)) != 0 || len(b.Lane(1)) != 0 {
		t.Fatalf("reset lanes not empty")
	}
	b.Reset(8, 200)
	b.SetLaneLen(7, 200)
	if len(b.Lane(7)) != 200 {
		t.Fatalf("grown lane length %d", len(b.Lane(7)))
	}
}

// AddLane must grow a staged batch without disturbing existing lanes,
// and Restride must repack contents losslessly.
func TestBatchAddLaneAndRestride(t *testing.T) {
	b := &Batch{}
	b.Reset(0, 4)
	for l := 0; l < 5; l++ {
		idx := b.AddLane()
		if idx != l {
			t.Fatalf("AddLane returned %d, want %d", idx, l)
		}
		lane := b.LaneCap(idx)
		for i := range lane {
			lane[i] = complex(float64(l), float64(i))
		}
		b.SetLaneLen(idx, 4)
	}
	check := func(stride int) {
		t.Helper()
		if b.Stride() < stride {
			t.Fatalf("stride %d, want >= %d", b.Stride(), stride)
		}
		for l := 0; l < 5; l++ {
			lane := b.Lane(l)
			if len(lane) != 4 {
				t.Fatalf("lane %d has len %d", l, len(lane))
			}
			for i, v := range lane {
				if v != complex(float64(l), float64(i)) {
					t.Fatalf("lane %d sample %d corrupted: %v", l, i, v)
				}
			}
		}
	}
	check(4)
	b.Restride(9)
	check(9)
	b.Restride(2) // shrink is a no-op
	check(9)
	// A lane added after a grow starts zeroed even over recycled memory.
	idx := b.AddLane()
	for _, v := range b.LaneCap(idx) {
		if v != 0 {
			t.Fatal("fresh lane not zeroed")
		}
	}
}
