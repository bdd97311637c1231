// Package dsp implements the complex-baseband kernels under the AP's
// receive chain: cached radix-2 FFT plans, valid-lag cross-correlation
// (direct, FFT, and batched over structure-of-arrays lanes), and the
// scratch arenas that keep those kernels allocation-free in steady
// state.
//
// signal.go (oscillator, mixing, delays, Goertzel, DC blocker) and
// window.go (spectral windows) are not on that chain: no binary runs
// them, and scripts/unreached.go lists them as pending deletion.
//
// Signals are []complex128 sample slices at an implicit sample rate that
// callers carry alongside. All transforms are deterministic and
// allocation patterns are documented on each function.
//
// DESIGN.md: section 3 (module inventory); the waveform level of section 6
// runs on these kernels.
package dsp

import (
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
