package dsp

// Tone kernel suite: ToneFill and the Accumulate*/Store* passes are pinned
// to a per-sample math.Sincos reference (refTone) at 1e-9 relative, on
// frame lengths past several renormalization intervals.

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refTone is the exact tone: cur * step^t evaluated by per-sample Sincos,
// immune to recurrence drift.
func refTone(n int, cur, step complex128) []complex128 {
	out := make([]complex128, n)
	amp := cmplx.Abs(cur)
	phi0 := cmplx.Phase(cur)
	dphi := cmplx.Phase(step)
	for t := range out {
		s, c := math.Sincos(phi0 + float64(t)*dphi)
		out[t] = complex(amp*c, amp*s)
	}
	return out
}

func TestToneFillMatchesSincos(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		// Frame lengths past several renormalization intervals, plus odd
		// (Bluestein-style) and tail (non-multiple-of-4) sizes.
		n := []int{8, 200, 256, 1024, 2048, 4096 + 3}[trial%6]
		amp := math.Pow(10, -6+4*rng.Float64())
		phi := rng.Float64() * 2 * math.Pi
		dphi := (rng.Float64() - 0.5) * math.Pi
		s0, c0 := math.Sincos(phi)
		ds, dc := math.Sincos(dphi)
		re := make([]float64, n)
		im := make([]float64, n)
		ToneFill(re, im, amp*c0, amp*s0, dc, ds)
		ref := refTone(n, complex(amp*c0, amp*s0), complex(dc, ds))
		worst := 0.0
		for i := range ref {
			d := cmplx.Abs(complex(re[i], im[i]) - ref[i])
			if e := d / amp; e > worst {
				worst = e
			}
		}
		if worst > 1e-9 {
			t.Errorf("trial %d (n=%d): ToneFill drifts %.3g relative from Sincos reference", trial, n, worst)
		}
	}
}

func TestToneFillRenormBoundsDrift(t *testing.T) {
	// A frame much longer than the renorm interval: an unrenormalized
	// recurrence would drift in magnitude; the kernel must stay at 1e-9.
	const n = 1 << 16
	amp := 3.5
	ds, dc := math.Sincos(0.7213)
	re := make([]float64, n)
	im := make([]float64, n)
	ToneFill(re, im, amp, 0, dc, ds)
	worst := 0.0
	for i := 0; i < n; i++ {
		m := math.Hypot(re[i], im[i])
		if e := math.Abs(m-amp) / amp; e > worst {
			worst = e
		}
	}
	if worst > 1e-9 {
		t.Errorf("magnitude drifts %.3g relative over %d samples", worst, n)
	}
}

func TestAccumulateRotatedMatchesComplexMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 64, 256} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		s, c := math.Sincos(rng.Float64() * 2 * math.Pi)
		rot := complex(c, s)
		dst := make([]complex128, n)
		want := make([]complex128, n)
		for i := range dst {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			dst[i], want[i] = v, v
		}
		AccumulateRotated(dst, re, im, c, s)
		plain := make([]complex128, n)
		copy(plain, want)
		AccumulateTone(plain, re, im)
		for i := range dst {
			want[i] += rot * complex(re[i], im[i])
			if d := cmplx.Abs(dst[i] - want[i]); d > 1e-12 {
				t.Fatalf("n=%d AccumulateRotated[%d]: |d|=%g", n, i, d)
			}
		}
		// AccumulateTone is the identity rotation.
		dst2 := make([]complex128, n)
		AccumulateTone(dst2, re, im)
		for i := range dst2 {
			if dst2[i] != complex(re[i], im[i]) {
				t.Fatalf("AccumulateTone[%d] = %v, want %v", i, dst2[i], complex(re[i], im[i]))
			}
		}
	}
}

func BenchmarkToneFill256(b *testing.B) {
	re := make([]float64, 256)
	im := make([]float64, 256)
	ds, dc := math.Sincos(0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ToneFill(re, im, 1e-5, 0, dc, ds)
	}
}

func BenchmarkAccumulateRotated256(b *testing.B) {
	re := make([]float64, 256)
	im := make([]float64, 256)
	dst := make([]complex128, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AccumulateRotated(dst, re, im, 0.6, 0.8)
	}
}

// TestStoreVariantsMatchAccumulateIntoZero pins the overwrite variants to
// their accumulate counterparts: storing into a dirty buffer must equal
// accumulating into a zeroed one, bit for bit — the property Synthesize
// relies on to skip the full-frame clear when the first scatterer writes.
func TestStoreVariantsMatchAccumulateIntoZero(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{5, 64, 256} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		s, c := math.Sincos(rng.Float64() * 2 * math.Pi)

		dirty := make([]complex128, n)
		for i := range dirty {
			dirty[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		zeroed := make([]complex128, n)
		StoreTone(dirty, re, im)
		AccumulateTone(zeroed, re, im)
		for i := range dirty {
			if dirty[i] != zeroed[i] {
				t.Fatalf("n=%d StoreTone[%d] = %v, want %v", n, i, dirty[i], zeroed[i])
			}
		}

		for i := range dirty {
			dirty[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			zeroed[i] = 0
		}
		StoreRotated(dirty, re, im, c, s)
		AccumulateRotated(zeroed, re, im, c, s)
		for i := range dirty {
			if dirty[i] != zeroed[i] {
				t.Fatalf("n=%d StoreRotated[%d] = %v, want %v", n, i, dirty[i], zeroed[i])
			}
		}
	}
}
