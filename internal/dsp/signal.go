package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// NCO is a numerically controlled oscillator producing unit-amplitude
// complex exponentials at a programmable frequency, with continuous phase
// across blocks and frequency changes.
type NCO struct {
	phase float64 // radians
	step  float64 // radians per sample
}

// NewNCO returns an oscillator at freqHz for the given sample rate,
// starting at phase radians.
func NewNCO(freqHz, sampleRate, phase float64) *NCO {
	return &NCO{phase: phase, step: 2 * math.Pi * freqHz / sampleRate}
}

// SetFrequency retunes the oscillator, preserving phase continuity.
func (o *NCO) SetFrequency(freqHz, sampleRate float64) {
	o.step = 2 * math.Pi * freqHz / sampleRate
}

// Next returns the next oscillator sample and advances phase.
func (o *NCO) Next() complex128 {
	s := cmplx.Exp(complex(0, o.phase))
	o.phase += o.step
	if o.phase > math.Pi*2 || o.phase < -math.Pi*2 {
		o.phase = math.Mod(o.phase, 2*math.Pi)
	}
	return s
}

// Block fills a new slice of n oscillator samples.
func (o *NCO) Block(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = o.Next()
	}
	return out
}

// Phase returns the oscillator's current phase in radians.
func (o *NCO) Phase() float64 { return o.phase }

// Tone synthesizes n samples of a unit complex exponential at freqHz.
func Tone(freqHz, sampleRate float64, n int, phase float64) []complex128 {
	return NewNCO(freqHz, sampleRate, phase).Block(n)
}

// Mix multiplies x by a complex exponential at freqHz, shifting its
// spectrum by +freqHz. It returns a new slice.
func Mix(x []complex128, freqHz, sampleRate, phase float64) []complex128 {
	o := NewNCO(freqHz, sampleRate, phase)
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * o.Next()
	}
	return out
}

// Chirp synthesizes a linear FMCW chirp sweeping from f0 to f1 over n
// samples (complex baseband, unit amplitude).
func Chirp(f0, f1, sampleRate float64, n int) []complex128 {
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	k := (f1 - f0) / (float64(n) / sampleRate) // Hz per second
	for i := range out {
		t := float64(i) / sampleRate
		phi := 2 * math.Pi * (f0*t + 0.5*k*t*t)
		out[i] = cmplx.Exp(complex(0, phi))
	}
	return out
}

// Scale multiplies x by a real gain in place and returns x.
func Scale(x []complex128, gain float64) []complex128 {
	g := complex(gain, 0)
	for i := range x {
		x[i] *= g
	}
	return x
}

// Add sums b into a in place and returns a. It panics on length mismatch.
func Add(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("dsp: Add length mismatch")
	}
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// Delay returns x delayed by whole samples, zero-padded at the front and
// truncated to the original length. d must be >= 0.
func Delay(x []complex128, d int) []complex128 {
	if d < 0 {
		panic("dsp: Delay requires non-negative delay")
	}
	out := make([]complex128, len(x))
	if d >= len(x) {
		return out
	}
	copy(out[d:], x[:len(x)-d])
	return out
}

// FractionalDelay applies a non-integer sample delay using a windowed-sinc
// interpolator of the given half-width (taps = 2*halfWidth+1).
func FractionalDelay(x []complex128, delay float64, halfWidth int) ([]complex128, error) {
	if delay < 0 {
		return nil, fmt.Errorf("dsp: fractional delay must be >= 0, got %g", delay)
	}
	if halfWidth < 1 {
		return nil, fmt.Errorf("dsp: interpolator half-width must be >= 1, got %d", halfWidth)
	}
	whole := int(delay)
	frac := delay - float64(whole)
	out := make([]complex128, len(x))
	if frac < 1e-12 {
		copy(out, Delay(x, whole))
		return out, nil
	}
	// Reconstruct x at continuous time n - whole - frac:
	//   y[n] = sum_k x[n - whole + k] * sinc(k + frac) * w(k + frac)
	// with a continuous Hamming taper w centred on the sinc peak.
	span := float64(halfWidth + 1)
	for n := range out {
		var acc complex128
		for k := -halfWidth - 1; k <= halfWidth; k++ {
			idx := n - whole + k
			if idx < 0 || idx >= len(x) {
				continue
			}
			t := float64(k) + frac
			if math.Abs(t) > span {
				continue
			}
			var s float64
			if math.Abs(t) < 1e-12 {
				s = 1
			} else {
				s = math.Sin(math.Pi*t) / (math.Pi * t)
			}
			w := 0.54 + 0.46*math.Cos(math.Pi*t/span)
			acc += x[idx] * complex(s*w, 0)
		}
		out[n] = acc
	}
	return out, nil
}

// Power returns the mean squared magnitude of x (average power).
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(x))
}

// Energy returns the total energy (sum of squared magnitudes) of x.
func Energy(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// RMS returns the root-mean-square magnitude of x.
func RMS(x []complex128) float64 { return math.Sqrt(Power(x)) }

// Normalize scales x in place to unit average power and returns x. A zero
// signal is returned unchanged.
func Normalize(x []complex128) []complex128 {
	p := Power(x)
	if p == 0 {
		return x
	}
	return Scale(x, 1/math.Sqrt(p))
}

// MagnitudeSquared returns |x[i]|^2 for each sample. This models an ideal
// square-law envelope detector output.
func MagnitudeSquared(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return out
}

// Decimate keeps every factor-th sample of x starting at offset 0. The
// caller is responsible for anti-alias filtering first.
func Decimate(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: decimation factor must be >= 1")
	}
	out := make([]complex128, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}

// Upsample inserts factor-1 zeros between samples. The caller applies an
// interpolation filter afterwards.
func Upsample(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: upsampling factor must be >= 1")
	}
	out := make([]complex128, len(x)*factor)
	for i, v := range x {
		out[i*factor] = v
	}
	return out
}

// PeakIndex returns the index of the maximum-magnitude sample and that
// magnitude. It returns (-1, 0) for empty input.
func PeakIndex(x []complex128) (int, float64) {
	best, bestMag := -1, 0.0
	for i, v := range x {
		m := cmplxAbs(v)
		if m > bestMag || best == -1 {
			best, bestMag = i, m
		}
	}
	return best, bestMag
}

// Goertzel computes the DFT of x at a single normalized frequency
// fNorm (cycles/sample) using the Goertzel recurrence — the standard
// low-cost single-bin detector for tone presence tests.
func Goertzel(x []complex128, fNorm float64) complex128 {
	w := 2 * math.Pi * fNorm
	coeff := 2 * math.Cos(w)
	var s1re, s2re, s1im, s2im float64
	for _, v := range x {
		s0re := real(v) + coeff*s1re - s2re
		s0im := imag(v) + coeff*s1im - s2im
		s2re, s1re = s1re, s0re
		s2im, s1im = s1im, s0im
	}
	// X(f) = e^{jw} * s1 - s2 (exact for integer bins f = k/N).
	c, s := math.Cos(w), math.Sin(w)
	re := c*s1re - s*s1im - s2re
	im := c*s1im + s*s1re - s2im
	return complex(re, im)
}

// GoertzelPower returns |Goertzel(x, fNorm)|^2 normalized by block length
// squared, i.e. the power of a unit tone at fNorm measures ~1.
func GoertzelPower(x []complex128, fNorm float64) float64 {
	g := Goertzel(x, fNorm)
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	return (real(g)*real(g) + imag(g)*imag(g)) / (n * n)
}

// DCBlocker is a single-pole IIR DC-removal filter:
//
//	y[n] = x[n] - x[n-1] + r*y[n-1]
//
// with r close to 1. It is the canonical low-cost structure an AP uses to
// strip the DC term produced by self-interference after downconversion.
type DCBlocker struct {
	r      float64
	xPrev  complex128
	yPrev  complex128
	primed bool
}

// NewDCBlocker returns a DC blocker with pole radius r in (0, 1).
func NewDCBlocker(r float64) (*DCBlocker, error) {
	if r <= 0 || r >= 1 {
		return nil, fmt.Errorf("dsp: DC blocker pole radius %g outside (0,1)", r)
	}
	return &DCBlocker{r: r}, nil
}

// Process filters a block in streaming fashion, carrying state across
// calls. It allocates the output slice.
func (d *DCBlocker) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		if !d.primed {
			// Initialize history to the first sample so a constant
			// input settles to zero output without a start-up step.
			d.xPrev = v
			d.primed = true
		}
		y := v - d.xPrev + complex(d.r, 0)*d.yPrev
		d.xPrev = v
		d.yPrev = y
		out[i] = y
	}
	return out
}

// Reset clears the blocker's state.
func (d *DCBlocker) Reset() {
	d.xPrev, d.yPrev, d.primed = 0, 0, false
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }
