package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"testing"
)

// naiveCorrelate is the O(n*m) reference for valid-lag correlation.
func naiveCorrelate(x, ref []complex128) []complex128 {
	n, m := len(x), len(ref)
	if m == 0 || n < m {
		return nil
	}
	out := make([]complex128, n-m+1)
	for k := range out {
		var acc complex128
		for i := 0; i < m; i++ {
			acc += x[k+i] * cmplx.Conj(ref[i])
		}
		out[k] = acc
	}
	return out
}

// Below the FFT threshold the direct loop runs in the reference's own
// summation order, so the result is bit-identical to it.
func TestCrossCorrelateMatchesNaiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randSignal(rng, 60)
	ref := randSignal(rng, 13)
	got := CrossCorrelateTo(nil, x, ref, nil)
	want := naiveCorrelate(x, ref)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("lag %d: direct %v != naive %v", k, got[k], want[k])
		}
	}
}

func TestCrossCorrelateMatchesNaiveLarge(t *testing.T) {
	// Force the FFT path (n*m > directMax).
	rng := rand.New(rand.NewSource(11))
	x := randSignal(rng, 600)
	ref := randSignal(rng, 100)
	got := CrossCorrelateTo(nil, x, ref, nil)
	want := naiveCorrelate(x, ref)
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("large correlate error %g", e)
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if CrossCorrelateTo(nil, nil, nil, nil) != nil {
		t.Fatal("empty inputs must return nil")
	}
	if CrossCorrelateTo(nil, []complex128{1}, []complex128{1, 2}, nil) != nil {
		t.Fatal("ref longer than x must return nil")
	}
	// x == ref: single lag equal to the energy.
	x := []complex128{1 + 1i, 2, -3i}
	r := CrossCorrelateTo(nil, x, x, nil)
	if len(r) != 1 {
		t.Fatalf("lags = %d, want 1", len(r))
	}
	if math.Abs(real(r[0])-Energy(x)) > 1e-12 || math.Abs(imag(r[0])) > 1e-12 {
		t.Fatalf("self correlation %v, want %g", r[0], Energy(x))
	}
}

// The kernel's cached spectrum and the package-level per-call spectrum
// must give the same bits on both paths, with and without arena scratch.
func TestCorrKernelMatchesCrossCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, c := range []struct{ n, m int }{
		{100, 16},  // direct path (n*m below the FFT threshold)
		{2000, 31}, // FFT path
		{5000, 64}, // FFT path, larger
	} {
		x := randSignal(rng, c.n)
		ref := randSignal(rng, c.m)
		want := CrossCorrelateTo(nil, x, ref, nil)
		if e := maxErr(want, naiveCorrelate(x, ref)); e > 1e-9*float64(c.n) {
			t.Fatalf("n=%d m=%d: naive correlation error %g", c.n, c.m, e)
		}
		kn := NewCorrKernel(ref)
		got := kn.CrossCorrelateTo(nil, x, nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d m=%d: length %d vs %d", c.n, c.m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d m=%d lag %d: kernel %v != direct %v", c.n, c.m, i, got[i], want[i])
			}
		}
		// Repeat with arena scratch and a reused dst: still bit-identical,
		// and the cached spectrum serves the second call.
		ar := &Arena{}
		dst := make([]complex128, len(want))
		for rep := 0; rep < 2; rep++ {
			for _, got := range [][]complex128{
				kn.CrossCorrelateTo(dst, x, ar),
				CrossCorrelateTo(dst, x, ref, ar),
			} {
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d m=%d rep %d: arena correlation diverged at lag %d", c.n, c.m, rep, i)
					}
				}
			}
		}
	}
}

func TestCorrKernelDegenerate(t *testing.T) {
	kn := NewCorrKernel(nil)
	if out := kn.CrossCorrelateTo(nil, make([]complex128, 8), nil); out != nil {
		t.Fatal("empty reference must yield nil")
	}
	kn = NewCorrKernel(make([]complex128, 8))
	if out := kn.CrossCorrelateTo(nil, make([]complex128, 4), nil); out != nil {
		t.Fatal("x shorter than reference must yield nil")
	}
}

// Both correlation entry points allocate nothing in steady state once
// fed a warmed arena and a capacious dst.
func TestHotKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(28))
	x := randSignal(rng, 2048)
	ref := randSignal(rng, 31)
	kn := NewCorrKernel(ref)
	ar := &Arena{}
	out := make([]complex128, len(x)-len(ref)+1)
	kn.CrossCorrelateTo(out, x, ar)
	if allocs := testing.AllocsPerRun(20, func() {
		kn.CrossCorrelateTo(out, x, ar)
	}); allocs != 0 {
		t.Errorf("CorrKernel.CrossCorrelateTo allocates %.1f/op, want 0", allocs)
	}
	CrossCorrelateTo(out, x, ref, ar)
	if allocs := testing.AllocsPerRun(20, func() {
		CrossCorrelateTo(out, x, ref, ar)
	}); allocs != 0 {
		t.Errorf("CrossCorrelateTo allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkCrossCorrelateFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 4096)
	ref := randSignal(rng, 128)
	ar := &Arena{}
	out := make([]complex128, len(x)-len(ref)+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CrossCorrelateTo(out, x, ref, ar)
	}
}

func BenchmarkCrossCorrelateTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 4096)
	ref := randSignal(rng, 31)
	kn := NewCorrKernel(ref)
	ar := &Arena{}
	out := make([]complex128, len(x)-len(ref)+1)
	kn.CrossCorrelateTo(out, x, ar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.CrossCorrelateTo(out, x, ar)
	}
}
