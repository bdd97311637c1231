package dsp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// Every production transform size comes from NextPow2, so a plan for
// any other size is a caller bug: it must panic and name the size.
func TestPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{1000, 3, 0, -4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("PlanFFT(%d) did not panic", n)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprint(n)) {
					t.Fatalf("PlanFFT(%d) panic %q does not name the size", n, msg)
				}
			}()
			PlanFFT(n)
		}()
	}
}

// TestPlanConcurrent exercises one shared plan from many goroutines —
// plans are immutable after construction, so every worker must see the
// same bits.
func TestPlanConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{256, 1024} {
		x := randSignal(rng, n)
		want := fft(x)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]complex128, n)
				for it := 0; it < 50; it++ {
					PlanFFT(n).radix2To(dst, x, false)
					for i := range want {
						if dst[i] != want[i] {
							select {
							case errs <- fmt.Errorf("n=%d bin %d: concurrent transform diverged", n, i):
							default:
							}
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
