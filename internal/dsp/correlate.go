package dsp

import (
	"math/cmplx"
	"sync"
)

// directMax is the largest n*m work (input length times reference
// length) correlated by the direct loop; larger problems take the FFT
// path.
const directMax = 1 << 14

// CrossCorrelateTo writes the valid-lag linear cross-correlation of x
// with the reference ref into dst (grown only when its capacity is
// short) and returns it:
//
//	r[k] = sum_n x[n+k] * conj(ref[n]),  k = 0 .. len(x)-len(ref)
//
// It returns nil when ref is longer than x or either is empty. Small
// problems run the direct loop; larger ones use FFT fast correlation
// with scratch borrowed from ar. A nil ar falls back to fresh
// allocation; with an arena and a capacious dst the call is
// allocation-free in steady state.
func CrossCorrelateTo(dst []complex128, x, ref []complex128, ar *Arena) []complex128 {
	return crossCorrelate(dst, x, ref, nil, ar)
}

// CorrKernel caches the forward-transformed, conjugate-reversed spectrum
// of a fixed reference sequence, so repeated correlations against the
// same reference (a receiver's preamble search) pay one forward and one
// inverse FFT per call instead of two forward and one inverse. Safe for
// concurrent use; results are bit-identical to CrossCorrelateTo.
type CorrKernel struct {
	ref []complex128

	mu   sync.Mutex
	spec map[int][]complex128 // FFT size -> reference spectrum
}

// NewCorrKernel copies ref into a reusable correlation kernel.
func NewCorrKernel(ref []complex128) *CorrKernel {
	r := make([]complex128, len(ref))
	copy(r, ref)
	return &CorrKernel{ref: r, spec: make(map[int][]complex128)}
}

// CrossCorrelateTo correlates x against the kernel's reference, writing
// into dst with FFT scratch from ar, exactly as the package-level
// CrossCorrelateTo would with the same reference.
func (kn *CorrKernel) CrossCorrelateTo(dst, x []complex128, ar *Arena) []complex128 {
	return crossCorrelate(dst, x, kn.ref, kn, ar)
}

// crossCorrelate is the body of both CrossCorrelateTo entry points. On
// the FFT path the reference spectrum comes from kn's cache when kn is
// non-nil (kn.ref must then be ref) and is transformed into arena
// scratch otherwise; both spectra are the same bits.
func crossCorrelate(dst, x, ref []complex128, kn *CorrKernel, ar *Arena) []complex128 {
	n, m := len(x), len(ref)
	if m == 0 || n < m {
		return nil
	}
	lags := n - m + 1
	out := GrowComplex(dst, lags)
	if n*m <= directMax {
		correlateDirect(out, x, ref)
		return out
	}
	// Correlation is convolution with the conjugate-reversed reference.
	size := NextPow2(n + m - 1)
	p := PlanFFT(size)
	var spec []complex128
	if kn != nil {
		spec = kn.spectrum(size, p)
	} else {
		spec = ar.ComplexZeroed(size)
		refSpectrum(spec, ref, p)
	}
	fx := ar.ComplexZeroed(size)
	copy(fx, x)
	p.radix2To(fx, fx, false)
	for i := range fx {
		fx[i] *= spec[i]
	}
	p.radix2To(fx, fx, true)
	scale := complex(1/float64(size), 0)
	for k := 0; k < lags; k++ {
		out[k] = fx[k+m-1] * scale
	}
	if kn == nil {
		ar.PutComplex(spec)
	}
	ar.PutComplex(fx)
	return out
}

// correlateDirect is the O(n*m) valid-lag correlation loop, writing
// len(x)-len(ref)+1 lags into out.
func correlateDirect(out, x, ref []complex128) {
	m := len(ref)
	for k := range out {
		var acc complex128
		for i := 0; i < m; i++ {
			acc += x[k+i] * cmplx.Conj(ref[i])
		}
		out[k] = acc
	}
}

// refSpectrum writes the forward transform of the zero-padded,
// conjugate-reversed reference into fr, which must be zeroed and of the
// plan's size.
func refSpectrum(fr, ref []complex128, p *Plan) {
	m := len(ref)
	for i := 0; i < m; i++ {
		fr[i] = cmplx.Conj(ref[m-1-i])
	}
	p.radix2To(fr, fr, false)
}

// spectrum returns the reference spectrum at the given FFT size,
// computing and caching it on first use per size. Cached slices are
// never mutated after publication, so callers may read them after the
// lock is released.
func (kn *CorrKernel) spectrum(size int, p *Plan) []complex128 {
	kn.mu.Lock()
	defer kn.mu.Unlock()
	if s, ok := kn.spec[size]; ok {
		return s
	}
	fr := make([]complex128, size)
	refSpectrum(fr, kn.ref, p)
	kn.spec[size] = fr
	return fr
}
