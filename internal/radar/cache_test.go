package radar

import (
	"testing"

	"ros/internal/obs"
)

// TestCacheGaugesAndReset pins the retention contract of the radar memo
// caches: first use registers an entry in the default engine's
// ros_engine_cache_entries children, clearing the default session zeroes
// both, and the pipeline keeps producing identical results after a reset
// (entries are pure memoization, never state).
func TestCacheGaugesAndReset(t *testing.T) {
	synthG := obs.DefaultCacheGauge(CacheSynthPlans)
	steerG := obs.DefaultCacheGauge(CacheSteering)

	defaultSession.Clear()
	if v := synthG.Value(); v != 0 {
		t.Fatalf("synth plan gauge = %v after reset, want 0", v)
	}
	if v := steerG.Value(); v != 0 {
		t.Fatalf("steering gauge = %v after reset, want 0", v)
	}

	c := TI1443()
	p := c.NewSynthPlan()
	sc := []Scatterer{{Range: 3, Azimuth: 0.1, Amplitude: 1e-5}}
	before := p.Synthesize(sc, nil)
	beforeCloud := c.PointCloud(before, DetectOptions{})
	ReleaseFrame(before)
	if v := synthG.Value(); v < 1 {
		t.Fatalf("synth plan gauge = %v after first plan, want >= 1", v)
	}
	if v := steerG.Value(); v < 1 {
		t.Fatalf("steering gauge = %v after first scan, want >= 1", v)
	}

	defaultSession.Clear()
	if v := synthG.Value(); v != 0 {
		t.Fatalf("synth plan gauge = %v after second reset, want 0", v)
	}
	if v := steerG.Value(); v != 0 {
		t.Fatalf("steering gauge = %v after second reset, want 0", v)
	}

	// Rebuilt entries must reproduce the pre-reset output exactly.
	p2 := c.NewSynthPlan()
	after := p2.Synthesize(sc, nil)
	afterCloud := c.PointCloud(after, DetectOptions{})
	ReleaseFrame(after)
	if len(afterCloud) != len(beforeCloud) {
		t.Fatalf("point cloud size changed across reset: %d -> %d", len(beforeCloud), len(afterCloud))
	}
	for i := range afterCloud {
		if afterCloud[i] != beforeCloud[i] {
			t.Fatalf("point %d changed across reset: %+v -> %+v", i, beforeCloud[i], afterCloud[i])
		}
	}
}
