// Default session of the radar package. Every memo cache — frame synthesis
// plans and beamforming steering tables — lives in a Session (see
// session.go); this file owns the one default session behind the
// package-level entry points, so callers without an explicit resource
// handle keep the process-lifetime behavior. The default session is the
// radar part of engine.Default, and its caches report under
// ros_engine_cache_entries{engine="default"}.
package radar

import (
	"ros/internal/dsp"
	"ros/internal/obs"
)

// defaultSession is the process-wide session behind the package-level shims,
// drawing its transform plans from the default dsp plan set.
var defaultSession = NewSession(dsp.DefaultPlanSet(), obs.DefaultCacheGauge)

// DefaultSession returns the process-wide session the package-level entry
// points (Config.NewSynthPlan, Config.Synthesize, the AoA helpers) memoize
// into.
func DefaultSession() *Session { return defaultSession }
