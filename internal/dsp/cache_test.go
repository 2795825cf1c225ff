package dsp

import (
	"math/cmplx"
	"testing"

	"ros/internal/obs"
)

// TestCacheGaugesAndReset pins the retention contract of the dsp memo
// caches: building a plan registers entries in the default engine's
// ros_engine_cache_entries children, clearing the default set zeroes them,
// and transforms built afterwards reproduce the pre-reset output exactly.
func TestCacheGaugesAndReset(t *testing.T) {
	planG := obs.DefaultCacheGauge(CachePlans)
	twidG := obs.DefaultCacheGauge(CacheTwiddles)
	winG := obs.DefaultCacheGauge(CacheWindows)

	defaultPlans.Clear()
	for _, g := range []*obs.Gauge{planG, twidG, winG} {
		if v := g.Value(); v != 0 {
			t.Fatalf("gauge = %v after reset, want 0", v)
		}
	}

	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	p := PlanFor(len(x), Hann)
	before := make([]complex128, len(x))
	p.Forward(before, x)
	Hann.CachedCoefficients(len(x))

	if v := planG.Value(); v < 1 {
		t.Fatalf("plan gauge = %v after PlanFor, want >= 1", v)
	}
	if v := twidG.Value(); v < 1 {
		t.Fatalf("twiddle gauge = %v after transform, want >= 1", v)
	}
	if v := winG.Value(); v < 1 {
		t.Fatalf("window gauge = %v after CachedCoefficients, want >= 1", v)
	}

	defaultPlans.Clear()
	for _, g := range []*obs.Gauge{planG, twidG, winG} {
		if v := g.Value(); v != 0 {
			t.Fatalf("gauge = %v after second reset, want 0", v)
		}
	}

	// Rebuilt plans must be bit-identical to the pre-reset ones.
	p2 := PlanFor(len(x), Hann)
	after := make([]complex128, len(x))
	p2.Forward(after, x)
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("bin %d changed across reset: %v -> %v (|d|=%g)",
				i, before[i], after[i], cmplx.Abs(after[i]-before[i]))
		}
	}
}
