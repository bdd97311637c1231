package phy

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// stagedBER is the original buffered MeasureBER pipeline — RandomBits,
// MapBits, Modulate, per-symbol noise, Slice, UnmapBits, bit counting —
// kept as a reference to pin the fused implementation's RNG draw order
// and arithmetic.
func stagedBER(t *testing.T, c *Constellation, ebn0 float64, nBits int, rng *rand.Rand) BERResult {
	t.Helper()
	txBits := RandomBits(rng, nBits)
	syms := c.MapBits(nil, txBits)
	tx := c.Modulate(nil, syms)
	es := c.MeanPower()
	n0 := es / (ebn0 * float64(c.BitsPerSymbol()))
	sigma := math.Sqrt(n0 / 2)
	rx := make([]complex128, len(tx))
	for i, v := range tx {
		rx[i] = v + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	rxSyms := c.Slice(nil, rx)
	rxBits := c.UnmapBits(nil, rxSyms)[:nBits]
	return BERResult{Bits: nBits, Errors: bitErrors(txBits, rxBits)}
}

// TestMeasureBERMatchesStagedReference verifies the fused measurement is
// draw-for-draw identical to the staged pipeline on the same RNG stream,
// including bit counts that do not fill the final symbol.
func TestMeasureBERMatchesStagedReference(t *testing.T) {
	qam16 := make([]complex128, 0, 16)
	for _, re := range []float64{-3, -1, 1, 3} {
		for _, im := range []float64{-3, -1, 1, 3} {
			qam16 = append(qam16, complex(re, im))
		}
	}
	q16, err := NewConstellation("qam16", qam16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Constellation{newBPSK(), NewQPSK(), newOOK(), q16} {
		for _, nBits := range []int{1, 7, 1000, 1001, 1003} {
			for _, ebn0 := range []float64{1, 5} {
				want := stagedBER(t, c, ebn0, nBits, rand.New(rand.NewSource(77)))
				got, err := MeasureBER(c, ebn0, nBits, rand.New(rand.NewSource(77)))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s nBits=%d ebn0=%g: fused %+v != staged %+v",
						c.Name(), nBits, ebn0, got, want)
				}
			}
		}
	}
}

func TestMeasureBERZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := NewQPSK()
	rng := rand.New(rand.NewSource(5))
	if _, err := MeasureBER(c, 5, 4096, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := MeasureBER(c, 5, 4096, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MeasureBER allocates %.1f/op, want 0", allocs)
	}
}
