package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// naiveDFT is an O(n^2) reference implementation of the unscaled
// forward (inverse=false) or inverse DFT.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			phi := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, phi))
		}
		out[k] = acc
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

// fft returns the planned forward transform of x (power-of-two length).
func fft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFFT(len(x)).radix2To(out, x, false)
	return out
}

// ifft returns the planned inverse transform of x scaled by 1/N, so
// ifft(fft(x)) == x up to rounding.
func ifft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFFT(len(x)).radix2To(out, x, true)
	s := complex(1/float64(len(x)), 0)
	for i := range out {
		out[i] *= s
	}
	return out
}

// radix2To must match the O(n^2) DFT in both directions.
func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024} {
		x := randSignal(rng, n)
		for _, inverse := range []bool{false, true} {
			got := make([]complex128, n)
			PlanFFT(n).radix2To(got, x, inverse)
			if e := maxErr(got, naiveDFT(x, inverse)); e > 1e-8*float64(n) {
				t.Fatalf("n=%d inverse=%v: max error %g", n, inverse, e)
			}
		}
	}
}

// The in-place form of radix2To (dst == x, the form the correlators
// run) must produce the same bits as the out-of-place one.
func TestFFTToInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 16, 128, 1024} {
		x := randSignal(rng, n)
		for _, inverse := range []bool{false, true} {
			want := make([]complex128, n)
			PlanFFT(n).radix2To(want, x, inverse)
			got := append([]complex128(nil), x...)
			PlanFFT(n).radix2To(got, got, inverse)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: in-place %v != out-of-place %v",
						n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFFTToZeroAlloc pins the plan contract: once a size's plan exists,
// transforms in both directions allocate nothing.
func TestFFTToZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{64, 1024} {
		p := PlanFFT(n)
		x := randSignal(rng, n)
		dst := make([]complex128, n)
		for _, inverse := range []bool{false, true} {
			if allocs := testing.AllocsPerRun(20, func() {
				p.radix2To(dst, x, inverse)
			}); allocs != 0 {
				t.Errorf("n=%d inverse=%v: radix2To allocates %.1f/op, want 0", n, inverse, allocs)
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 16, 64, 256, 1024} {
		x := randSignal(rng, n)
		back := ifft(fft(x))
		if e := maxErr(back, x); e > 1e-9*float64(n) {
			t.Fatalf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, nRaw uint8) bool {
		n := 1 << (nRaw % 9)
		r := rand.New(rand.NewSource(seed))
		x := randSignal(r, n)
		back := ifft(fft(x))
		return maxErr(back, x) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 32, 128, 256} {
		x := randSignal(rng, n)
		spec := fft(x)
		tEnergy := Energy(x)
		fEnergy := Energy(spec) / float64(n)
		if math.Abs(tEnergy-fEnergy) > 1e-8*tEnergy {
			t.Fatalf("n=%d: Parseval mismatch %g vs %g", n, tEnergy, fEnergy)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	x := randSignal(rng, n)
	y := randSignal(rng, n)
	a, b := complex(1.7, -0.3), complex(-0.5, 2.2)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + b*y[i]
	}
	lhs := fft(sum)
	fx, fy := fft(x), fft(y)
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = a*fx[i] + b*fy[i]
	}
	if e := maxErr(lhs, rhs); e > 1e-8 {
		t.Fatalf("linearity violated: %g", e)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 32)
	x[0] = 1
	for i, v := range fft(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTToneBin(t *testing.T) {
	// A pure tone at bin k concentrates all energy in that bin.
	n := 128
	k := 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/float64(n)))
	}
	spec := fft(x)
	for i, v := range spec {
		mag := cmplx.Abs(v)
		if i == k {
			if math.Abs(mag-float64(n)) > 1e-6 {
				t.Fatalf("tone bin magnitude %g, want %d", mag, n)
			}
		} else if mag > 1e-6 {
			t.Fatalf("leakage at bin %d: %g", i, mag)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PlanFFT(0) must panic")
			}
		}()
		PlanFFT(0)
	}()
	got := fft([]complex128{3 + 4i})
	if len(got) != 1 || got[0] != 3+4i {
		t.Fatalf("1-point FFT = %v", got)
	}
}

// Every lane of the interleaved batch transform must be bit-identical
// to a per-lane radix2To, for both directions and any lane count
// (including the unrolled 8-lane path), and so match the naive DFT.
func TestFFTBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 64, 512} {
		p := PlanFFT(n)
		for _, lanes := range []int{1, 2, 7, 8, 64} {
			x := make([][]complex128, lanes)
			for l := range x {
				x[l] = randSignal(rng, n)
			}
			for _, inverse := range []bool{false, true} {
				buf := make([]complex128, n*lanes)
				for l, lane := range x {
					for i, v := range lane {
						buf[i*lanes+l] = v
					}
				}
				p.radix2Batch(buf, lanes, inverse)
				want := make([]complex128, n)
				for l, lane := range x {
					p.radix2To(want, lane, inverse)
					for i := range want {
						if got := buf[i*lanes+l]; got != want[i] {
							t.Fatalf("n=%d lanes=%d inv=%v lane=%d idx=%d: %v != %v",
								n, lanes, inverse, l, i, got, want[i])
						}
					}
					if e := maxErr(want, naiveDFT(lane, inverse)); e > 1e-8*float64(n) {
						t.Fatalf("n=%d lanes=%d inv=%v lane=%d: naive DFT error %g", n, lanes, inverse, l, e)
					}
				}
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func benchmarkFFT(b *testing.B, n int) {
	x := randSignal(rand.New(rand.NewSource(1)), n)
	dst := make([]complex128, n)
	p := PlanFFT(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.radix2To(dst, x, false)
	}
}

func BenchmarkFFT1024(b *testing.B) { benchmarkFFT(b, 1024) }

func BenchmarkFFT4096(b *testing.B) { benchmarkFFT(b, 4096) }
