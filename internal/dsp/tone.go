package dsp

// Structure-of-arrays tone kernels for the frame synthesizer. One scatterer
// contributes the same complex tone cur*step^t to every Rx channel, rotated
// by a per-channel steering phasor; the old executor re-ran the
// latency-bound rotation recurrence once per channel. The kernel splits the
// work instead: ToneFill runs the recurrence exactly once per scatterer
// into split re/im lanes, and AccumulateTone/AccumulateRotated spread the
// finished lanes across the channels as independent multiply-adds with no
// loop-carried dependency — the loops the superscalar core (or a
// vectorizing compiler) can actually overlap.
//
// ToneFill advances four phasor lanes a stride of step^4 apart and
// renormalizes them every toneRenormInterval samples, so multiplicative
// rounding drift stays bounded on arbitrarily long frames; tone_test.go
// pins it to a per-sample Sincos reference at 1e-9.
//
// Every kernel is generic over the lane element type (Lane). The phasor
// recurrence and the per-channel rotation always run in float64 and dst is
// always complex128; the element type only sets the precision the finished
// tone is stored at. float32 lanes halve the lane traffic every channel pass
// re-reads, and each stored value is the float64 tone rounded once.

import "math"

// Lane is the element type of the split re/im tone lanes.
type Lane interface{ float32 | float64 }

// toneRenormInterval is the phasor renormalization period: |step| = 1 up to
// rounding, so lane magnitude drifts by ~1 ulp per multiply; rescaling back
// to the scatterer amplitude every 512 samples bounds the drift at ~1e-13
// relative regardless of frame length.
const toneRenormInterval = 512

// ToneFill writes the tone cur*step^t into the split re/im lanes for
// t = 0..len(re)-1. Four phasor lanes advance by step^4 so the four complex
// multiply chains overlap in flight instead of serializing on one; the
// lanes renormalize to the starting magnitude every toneRenormInterval
// samples. The recurrence runs in float64 whatever T is (a float32
// recurrence would need renorms every ~32 samples); only the stores narrow.
// re and im must have equal length.
func ToneFill[T Lane](re, im []T, curRe, curIm, stepRe, stepIm float64) {
	n := len(re)
	im = im[:n]
	// step^2 and step^4 for the lane offsets and the lane stride.
	s2r := stepRe*stepRe - stepIm*stepIm
	s2i := 2 * stepRe * stepIm
	s4r := s2r*s2r - s2i*s2i
	s4i := 2 * s2r * s2i
	c0r, c0i := curRe, curIm
	c1r := curRe*stepRe - curIm*stepIm
	c1i := curRe*stepIm + curIm*stepRe
	c2r := curRe*s2r - curIm*s2i
	c2i := curRe*s2i + curIm*s2r
	c3r := c2r*stepRe - c2i*stepIm
	c3i := c2r*stepIm + c2i*stepRe
	amp2 := curRe*curRe + curIm*curIm
	t := 0
	renorm := toneRenormInterval
	for ; t+4 <= n; t += 4 {
		re[t], im[t] = T(c0r), T(c0i)
		re[t+1], im[t+1] = T(c1r), T(c1i)
		re[t+2], im[t+2] = T(c2r), T(c2i)
		re[t+3], im[t+3] = T(c3r), T(c3i)
		c0r, c0i = c0r*s4r-c0i*s4i, c0r*s4i+c0i*s4r
		c1r, c1i = c1r*s4r-c1i*s4i, c1r*s4i+c1i*s4r
		c2r, c2i = c2r*s4r-c2i*s4i, c2r*s4i+c2i*s4r
		c3r, c3i = c3r*s4r-c3i*s4i, c3r*s4i+c3i*s4r
		if t >= renorm && amp2 > 0 {
			renorm += toneRenormInterval
			if m := c0r*c0r + c0i*c0i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c0r, c0i = c0r*s, c0i*s
			}
			if m := c1r*c1r + c1i*c1i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c1r, c1i = c1r*s, c1i*s
			}
			if m := c2r*c2r + c2i*c2i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c2r, c2i = c2r*s, c2i*s
			}
			if m := c3r*c3r + c3i*c3i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c3r, c3i = c3r*s, c3i*s
			}
		}
	}
	for ; t < n; t++ {
		re[t], im[t] = T(c0r), T(c0i)
		c0r, c0i = c0r*stepRe-c0i*stepIm, c0r*stepIm+c0i*stepRe
	}
}

// AccumulateTone adds the split-lane tone to dst: dst[t] += re[t] + i*im[t].
// This is the steering identity rotation (channel 0) — a pure streaming add
// with no dependency between iterations.
func AccumulateTone[T Lane](dst []complex128, re, im []T) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		dst[t] += complex(float64(re[t]), float64(im[t]))
	}
}

// AccumulateRotated adds the split-lane tone rotated by the constant phasor
// a = aRe + i*aIm to dst: dst[t] += a * (re[t] + i*im[t]). Iterations are
// independent, so the four multiplies and four adds per sample pipeline
// freely.
func AccumulateRotated[T Lane](dst []complex128, re, im []T, aRe, aIm float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		tr, ti := float64(re[t]), float64(im[t])
		dst[t] += complex(aRe*tr-aIm*ti, aRe*ti+aIm*tr)
	}
}

// StoreTone is AccumulateTone with = instead of +=: the first scatterer of a
// frame defines the buffer contents outright, so the synthesis loop skips
// zeroing the pooled frame beforehand.
func StoreTone[T Lane](dst []complex128, re, im []T) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		dst[t] = complex(float64(re[t]), float64(im[t]))
	}
}

// StoreRotated is AccumulateRotated with = instead of +=.
func StoreRotated[T Lane](dst []complex128, re, im []T, aRe, aIm float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		tr, ti := float64(re[t]), float64(im[t])
		dst[t] = complex(aRe*tr-aIm*ti, aRe*ti+aIm*tr)
	}
}
