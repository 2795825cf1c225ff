// Default plan set of the dsp package. Every memo cache — fused plans,
// window tables, twiddle tables, chirp plans — lives in a PlanSet (see
// planset.go); this file owns the one default set behind the package-level
// entry points, so callers without an explicit resource handle keep the
// process-lifetime behavior. The default set is the transform part of
// engine.Default, and its caches report under
// ros_engine_cache_entries{engine="default"}.
//
// The scratch pools (Gauss streams, per-plan in-place transform buffers) are
// sync.Pools: the garbage collector already bounds those, so they are not
// counted here.
package dsp

import "ros/internal/obs"

// defaultPlans is the process-wide plan set behind the package-level shims.
var defaultPlans = NewPlanSet(obs.DefaultCacheGauge)

// DefaultPlanSet returns the process-wide plan set the package-level entry
// points (PlanFor, Window.CachedCoefficients, FFT/IFFT) memoize into.
func DefaultPlanSet() *PlanSet { return defaultPlans }
