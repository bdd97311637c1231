package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dominantFrequency returns the frequency (Hz) of the strongest spectral
// component of x (power-of-two length): the peak bin of the
// Hann-windowed spectrum, refined by parabolic interpolation on the log
// magnitude for sub-bin accuracy on tones. It returns 0 for empty x.
func dominantFrequency(x []complex128, sampleRate float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	buf := append([]complex128(nil), x...)
	ApplyWindow(buf, Hann.Coefficients(n))
	spec := fft(buf)
	mags := make([]float64, n)
	best := 0
	for i, v := range spec {
		mags[i] = real(v)*real(v) + imag(v)*imag(v)
		if mags[i] > mags[best] {
			best = i
		}
	}
	a := math.Log(mags[(best-1+n)%n] + 1e-300)
	b := math.Log(mags[best] + 1e-300)
	c := math.Log(mags[(best+1)%n] + 1e-300)
	delta := 0.0
	if den := a - 2*b + c; math.Abs(den) > 1e-12 {
		delta = math.Max(-0.5, math.Min(0.5, 0.5*(a-c)/den))
	}
	k := float64(best) + delta
	if k > float64(n)/2 {
		k -= float64(n)
	}
	return k * sampleRate / float64(n)
}

func TestDominantFrequencySubBin(t *testing.T) {
	fs := 1e6
	n := 1024
	// An off-bin frequency: interpolation should get within a tenth of a
	// bin (bin width ~977 Hz).
	f := 123_456.0
	x := Tone(f, fs, n, 0)
	got := dominantFrequency(x, fs)
	if math.Abs(got-f) > 200 {
		t.Fatalf("dominant frequency %g, want %g", got, f)
	}
	// Negative frequencies work too.
	x = Tone(-200e3, fs, n, 0)
	got = dominantFrequency(x, fs)
	if math.Abs(got+200e3) > 200 {
		t.Fatalf("negative dominant frequency %g, want -200 kHz", got)
	}
	if dominantFrequency(nil, fs) != 0 {
		t.Fatal("empty input must return 0")
	}
}

func TestNCOFrequency(t *testing.T) {
	fs := 1e6
	o := NewNCO(100e3, fs, 0)
	x := o.Block(1024)
	got := dominantFrequency(x, fs)
	if math.Abs(got-100e3) > 100 {
		t.Fatalf("NCO frequency %g, want 100 kHz", got)
	}
	// Unit amplitude.
	if math.Abs(Power(x)-1) > 1e-12 {
		t.Fatalf("NCO power %g, want 1", Power(x))
	}
}

func TestNCOPhaseContinuity(t *testing.T) {
	o := NewNCO(0.01, 1, 0)
	a := o.Block(100)
	b := o.Block(100)
	// The concatenation must equal one 200-sample block.
	ref := NewNCO(0.01, 1, 0).Block(200)
	joined := append(append([]complex128{}, a...), b...)
	if e := maxErr(joined, ref); e > 1e-9 {
		t.Fatalf("phase discontinuity: %g", e)
	}
}

func TestNCORetuneKeepsPhase(t *testing.T) {
	o := NewNCO(0.1, 1, 0)
	o.Block(37)
	phaseBefore := o.Phase()
	o.SetFrequency(0.25, 1)
	if o.Phase() != phaseBefore {
		t.Fatal("SetFrequency must not jump phase")
	}
}

func TestMixShiftsSpectrum(t *testing.T) {
	fs := 1e6
	x := Tone(50e3, fs, 2048, 0.3)
	y := Mix(x, 100e3, fs, 0)
	got := dominantFrequency(y, fs)
	if math.Abs(got-150e3) > 100 {
		t.Fatalf("mixed frequency %g, want 150 kHz", got)
	}
}

func TestMixDownToDC(t *testing.T) {
	fs := 1e6
	x := Tone(200e3, fs, 2048, 1.1)
	y := Mix(x, -200e3, fs, 0)
	// Result should be (nearly) constant.
	for i := 1; i < len(y); i++ {
		if cmplx.Abs(y[i]-y[0]) > 1e-9 {
			t.Fatalf("downmix not constant at %d", i)
		}
	}
}

func TestChirpSweep(t *testing.T) {
	fs := 10e6
	n := 8192
	c := Chirp(0, 2e6, fs, n)
	if math.Abs(Power(c)-1) > 1e-12 {
		t.Fatal("chirp must be unit amplitude")
	}
	// Instantaneous frequency early in the chirp is near 0, late is near
	// the top. Check by windowed dominant frequency.
	head := dominantFrequency(c[:512], fs)
	tail := dominantFrequency(c[n-512:], fs)
	if head > 0.5e6 {
		t.Fatalf("chirp head frequency %g, want near 0", head)
	}
	if tail < 1.5e6 {
		t.Fatalf("chirp tail frequency %g, want near 2 MHz", tail)
	}
}

func TestDelay(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := Delay(x, 2)
	want := []complex128{0, 0, 1, 2}
	if e := maxErr(y, want); e > 0 {
		t.Fatalf("Delay got %v", y)
	}
	// Delay beyond length zeroes everything.
	y = Delay(x, 10)
	for _, v := range y {
		if v != 0 {
			t.Fatal("over-delay must zero")
		}
	}
}

func TestFractionalDelayWholeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randSignal(rng, 64)
	y, err := FractionalDelay(x, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(y, Delay(x, 3)); e > 1e-12 {
		t.Fatalf("whole-sample fractional delay mismatch %g", e)
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	// Delay a slow tone by 0.5 samples; compare against the analytic
	// shifted tone away from the edges.
	fs := 1.0
	f := 0.02
	n := 256
	x := Tone(f, fs, n, 0)
	y, err := FractionalDelay(x, 10.5, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 40; i < n-40; i++ {
		want := cmplx.Exp(complex(0, 2*math.Pi*f*(float64(i)-10.5)))
		if cmplx.Abs(y[i]-want) > 0.01 {
			t.Fatalf("sample %d: got %v want %v", i, y[i], want)
		}
	}
}

func TestFractionalDelayErrors(t *testing.T) {
	if _, err := FractionalDelay(nil, -1, 4); err == nil {
		t.Fatal("negative delay must error")
	}
	if _, err := FractionalDelay(nil, 1, 0); err == nil {
		t.Fatal("zero half-width must error")
	}
}

func TestPowerEnergyRMS(t *testing.T) {
	x := []complex128{3 + 4i, 3 + 4i} // |x| = 5, |x|^2 = 25
	if p := Power(x); math.Abs(p-25) > 1e-12 {
		t.Fatalf("Power %g", p)
	}
	if e := Energy(x); math.Abs(e-50) > 1e-12 {
		t.Fatalf("Energy %g", e)
	}
	if r := RMS(x); math.Abs(r-5) > 1e-12 {
		t.Fatalf("RMS %g", r)
	}
	if Power(nil) != 0 {
		t.Fatal("empty power must be 0")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, 128)
		Normalize(x)
		return math.Abs(Power(x)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Zero signal unchanged.
	z := make([]complex128, 4)
	Normalize(z)
	for _, v := range z {
		if v != 0 {
			t.Fatal("zero signal must stay zero")
		}
	}
}

func TestMagnitudeSquaredIsEnvelopeDetector(t *testing.T) {
	// |e^{j phi}|^2 == 1 regardless of phase: the square-law detector
	// strips phase, which is exactly why the tag needs no oscillator.
	x := Tone(0.123, 1, 100, 0.7)
	for _, v := range MagnitudeSquared(x) {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("envelope %g, want 1", v)
		}
	}
}

func TestDecimateUpsample(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5, 6, 7}
	d := Decimate(x, 3)
	want := []complex128{1, 4, 7}
	if e := maxErr(d, want); e > 0 {
		t.Fatalf("Decimate got %v", d)
	}
	u := Upsample([]complex128{1, 2}, 3)
	wantU := []complex128{1, 0, 0, 2, 0, 0}
	if e := maxErr(u, wantU); e > 0 {
		t.Fatalf("Upsample got %v", u)
	}
}

func TestAddScale(t *testing.T) {
	a := []complex128{1, 2}
	b := []complex128{10, 20}
	Add(a, b)
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("Add got %v", a)
	}
	Scale(a, 2)
	if a[0] != 22 || a[1] != 44 {
		t.Fatalf("Scale got %v", a)
	}
}

func TestAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add([]complex128{1}, []complex128{1, 2})
}

func TestPeakIndex(t *testing.T) {
	x := []complex128{1, -5i, 2}
	i, m := PeakIndex(x)
	if i != 1 || math.Abs(m-5) > 1e-15 {
		t.Fatalf("peak (%d, %g)", i, m)
	}
	i, m = PeakIndex(nil)
	if i != -1 || m != 0 {
		t.Fatal("empty peak must be (-1, 0)")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randSignal(rng, 128)
	spec := fft(x)
	for _, k := range []int{0, 1, 17, 64, 127} {
		g := Goertzel(x, float64(k)/128)
		if cmplx.Abs(g-spec[k]) > 1e-8 {
			t.Fatalf("bin %d: goertzel %v vs fft %v", k, g, spec[k])
		}
	}
}

func TestGoertzelPowerToneDetection(t *testing.T) {
	// The node-side tone detector: power ~1 when the tone is present,
	// ~0 when absent.
	n := 256
	f := 0.1
	present := Tone(f, 1, n, 0.4)
	if p := GoertzelPower(present, f); math.Abs(p-1) > 1e-9 {
		t.Fatalf("present power %g", p)
	}
	absent := Tone(0.3, 1, n, 0)
	if p := GoertzelPower(absent, f); p > 1e-3 {
		t.Fatalf("absent power %g", p)
	}
	if GoertzelPower(nil, f) != 0 {
		t.Fatal("empty power must be 0")
	}
}

func BenchmarkGoertzel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Goertzel(x, 0.1)
	}
}

func TestDCBlockerRemovesDC(t *testing.T) {
	d, err := NewDCBlocker(0.995)
	if err != nil {
		t.Fatal(err)
	}
	// Constant input must settle to ~0 output immediately thanks to
	// priming.
	x := make([]complex128, 2000)
	for i := range x {
		x[i] = 3 + 1i
	}
	y := d.Process(x)
	for i, v := range y {
		if cmplxAbs(v) > 1e-9 {
			t.Fatalf("DC leak at sample %d: %v", i, v)
		}
	}
}

func TestDCBlockerPassesAC(t *testing.T) {
	d, _ := NewDCBlocker(0.995)
	// A tone well above the blocker corner passes with ~unit gain.
	x := Tone(0.1, 1, 4000, 0)
	for i := range x {
		x[i] += 5 // large DC offset
	}
	y := d.Process(x)
	// Skip the settling transient, then compare power to the tone's.
	tail := y[2000:]
	p := Power(tail)
	if math.Abs(p-1) > 0.05 {
		t.Fatalf("AC power through blocker %g, want ~1", p)
	}
}

func TestDCBlockerErrors(t *testing.T) {
	for _, r := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewDCBlocker(r); err == nil {
			t.Fatalf("radius %g must error", r)
		}
	}
}

func TestDCBlockerReset(t *testing.T) {
	d, _ := NewDCBlocker(0.99)
	x := []complex128{1, 2, 3}
	a := d.Process(x)
	d.Reset()
	b := d.Process(x)
	if e := maxErr(a, b); e > 1e-15 {
		t.Fatal("Reset did not clear blocker state")
	}
}
