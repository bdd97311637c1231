package phy

import (
	"math/rand"
	"testing"

	"mmtag/internal/fastrand"
	"mmtag/internal/vanatta"
)

// MeasureBERFast must reproduce MeasureBER exactly — same error
// counts AND same stream consumption — for every slicer shape (grid,
// diamond, scan fallback), partial final symbols, and a shared stream
// threading through many measurements (the way E3 uses it).
func TestMeasureBERFastMatchesReference(t *testing.T) {
	sets := []vanatta.StateSet{
		vanatta.OOK(),   // 1-D grid
		vanatta.BPSK(),  // 1-D grid
		vanatta.QPSK(),  // diamond
		vanatta.PSK8(),  // scan fallback
		vanatta.QAM16(), // 2-D grid
	}
	for _, seed := range []int64{1, 42, 77} {
		ref := rand.New(rand.NewSource(seed))
		got := fastrand.New(seed)
		for _, set := range sets {
			c, err := NewConstellation(set.Name(), set.States())
			if err != nil {
				t.Fatal(err)
			}
			for _, nBits := range []int{1, 7, 1000, 60001} {
				for _, ebn0 := range []float64{1.58, 6.31} {
					want, err1 := MeasureBER(c, ebn0, nBits, ref)
					have, err2 := MeasureBERFast(c, ebn0, nBits, got)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s: errs %v / %v", set.Name(), err1, err2)
					}
					if want != have {
						t.Fatalf("%s seed=%d nBits=%d ebn0=%g: %+v != %+v",
							set.Name(), seed, nBits, ebn0, have, want)
					}
				}
			}
		}
		// Stream positions must agree after all measurements.
		if a, b := ref.Int63(), got.Int63(); a != b {
			t.Fatalf("seed %d: streams desynchronized (%d vs %d)", seed, a, b)
		}
	}
}

func TestMeasureBERFastValidation(t *testing.T) {
	c := newOOK()
	rng := fastrand.New(1)
	if _, err := MeasureBERFast(c, 0, 100, rng); err == nil {
		t.Fatal("zero Eb/N0 must error")
	}
	if _, err := MeasureBERFast(c, 1, 0, rng); err == nil {
		t.Fatal("zero bits must error")
	}
}

// Steady-state fused measurements must not allocate (mirrors the fused
// MeasureBER guard).
func TestMeasureBERFastZeroAlloc(t *testing.T) {
	c := NewQPSK()
	rng := fastrand.New(9)
	MeasureBERFast(c, 2.0, 4096, rng) // warm the arena pool
	allocs := testing.AllocsPerRun(10, func() {
		MeasureBERFast(c, 2.0, 4096, rng)
	})
	if allocs != 0 {
		t.Fatalf("MeasureBERFast allocates %v per run, want 0", allocs)
	}
}

func BenchmarkMeasureBER(b *testing.B) {
	c, err := NewConstellation("16qam", vanatta.QAM16().States())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		rng := fastrand.New(1)
		for i := 0; i < b.N; i++ {
			if _, err := MeasureBERFast(c, 4.0, 100000, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := MeasureBER(c, 4.0, 100000, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}
