package dsp

import (
	"math"
	"testing"
)

// TestToneFill32MatchesToneFill pins the float32 instantiation of the tone
// kernel to the float64 one: the recurrence is identical, only the stores
// narrow, so every lane value must be exactly the f64 value rounded once to
// float32.
func TestToneFill32MatchesToneFill(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 256, 1300} {
		re64 := make([]float64, n)
		im64 := make([]float64, n)
		re32 := make([]float32, n)
		im32 := make([]float32, n)
		amp := 0.37
		ang := 0.83
		sr, si := math.Cos(0.0021), math.Sin(0.0021)
		cr, ci := amp*math.Cos(ang), amp*math.Sin(ang)
		ToneFill(re64, im64, cr, ci, sr, si)
		ToneFill(re32, im32, cr, ci, sr, si)
		for i := 0; i < n; i++ {
			if re32[i] != float32(re64[i]) || im32[i] != float32(im64[i]) {
				t.Fatalf("n=%d idx %d: (%v,%v) != narrowed (%v,%v)",
					n, i, re32[i], im32[i], float32(re64[i]), float32(im64[i]))
			}
		}
	}
}

// TestAccumulateRotated32MatchesComplexMul checks the widening rotate-add
// against the plain complex multiply it replaces.
func TestAccumulateRotated32MatchesComplexMul(t *testing.T) {
	const n = 97
	re := make([]float32, n)
	im := make([]float32, n)
	for i := range re {
		re[i] = float32(math.Sin(float64(i) * 0.71))
		im[i] = float32(math.Cos(float64(i) * 0.29))
	}
	aRe, aIm := 0.6, -0.8
	dst := make([]complex128, n)
	want := make([]complex128, n)
	for i := range dst {
		dst[i] = complex(float64(i)*0.01, -float64(i)*0.02)
		want[i] = dst[i] + complex(aRe, aIm)*complex(float64(re[i]), float64(im[i]))
	}
	AccumulateRotated(dst, re, im, aRe, aIm)
	for i := range dst {
		if d := cAbs(dst[i] - want[i]); d > 1e-15 {
			t.Fatalf("idx %d: got %v want %v", i, dst[i], want[i])
		}
	}
}

// TestStoreVariants32MatchAccumulateIntoZero pins the = variants to the +=
// variants over a zeroed destination, and AccumulateTone to the identity
// rotation.
func TestStoreVariants32MatchAccumulateIntoZero(t *testing.T) {
	const n = 64
	re := make([]float32, n)
	im := make([]float32, n)
	for i := range re {
		re[i] = float32(i)*0.125 - 3
		im[i] = 5 - float32(i)*0.25
	}
	aRe, aIm := 0.31, 0.77
	stored := make([]complex128, n)
	accum := make([]complex128, n)
	StoreRotated(stored, re, im, aRe, aIm)
	AccumulateRotated(accum, re, im, aRe, aIm)
	for i := range stored {
		if stored[i] != accum[i] {
			t.Fatalf("StoreRotated idx %d: %v != %v", i, stored[i], accum[i])
		}
	}
	storedT := make([]complex128, n)
	accumT := make([]complex128, n)
	StoreTone(storedT, re, im)
	AccumulateTone(accumT, re, im)
	ident := make([]complex128, n)
	AccumulateRotated(ident, re, im, 1, 0)
	for i := range storedT {
		if storedT[i] != accumT[i] || storedT[i] != ident[i] {
			t.Fatalf("StoreTone idx %d: %v / %v / %v disagree", i, storedT[i], accumT[i], ident[i])
		}
	}
}

func cAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

func BenchmarkToneFill32(b *testing.B) {
	re := make([]float32, 256)
	im := make([]float32, 256)
	sr, si := math.Cos(0.01), math.Sin(0.01)
	b.SetBytes(256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ToneFill(re, im, 1, 0, sr, si)
	}
}

func BenchmarkAccumulateRotated32_256(b *testing.B) {
	re := make([]float32, 256)
	im := make([]float32, 256)
	sr, si := math.Cos(0.01), math.Sin(0.01)
	ToneFill(re, im, 1, 0, sr, si)
	dst := make([]complex128, 256)
	b.SetBytes(256 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccumulateRotated(dst, re, im, 0.6, -0.8)
	}
}
