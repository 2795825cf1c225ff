// Session is the radar layer's resource handle: the memoized state one
// radar+scene configuration accumulates — frame synthesis plans (with their
// pooled frame buffers) and beamforming steering tables — owned by whoever
// constructed the session instead of by the process. The package-level entry
// points (Config.NewSynthPlan, Config.Synthesize, the AoA helpers) remain as
// thin shims over one default session, so existing callers keep their
// process-lifetime behavior; servers juggling many configurations build one
// Session per handle and Clear it deterministically when the handle is
// retired.
package radar

import (
	"fmt"
	"math"

	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/obs"
)

// Cache names a Session reports under, passed to the dsp.CacheGauge provider
// so an owning handle can label one shared gauge vector per cache instead of
// colliding on global gauge names.
const (
	CacheSynthPlans = "radar_synth_plan"
	CacheSteering   = "radar_steering"
)

// Session owns the radar memo caches for one configuration handle. Entries
// are immutable and safe for concurrent use; the session itself is safe for
// concurrent use by any number of goroutines.
type Session struct {
	// plans supplies the fused window+FFT plans synthesis plans capture.
	plans *dsp.PlanSet
	// synthPlans caches frame front-end plans per Config (Config is
	// comparable); a sweep re-reading the same radar reuses the
	// scene-static tables across reads.
	synthPlans *obs.CountedMap
	// steering caches beamforming steering tables per
	// (numRx, spacing, frequency).
	steering *obs.CountedMap
}

// NewSession returns an empty session drawing transform plans from the given
// set, with caches mirroring their entry counts into the gauges the provider
// hands out.
func NewSession(plans *dsp.PlanSet, gauge dsp.CacheGauge) *Session {
	return &Session{
		plans:      plans,
		synthPlans: obs.NewCountedMap(gauge(CacheSynthPlans)),
		steering:   obs.NewCountedMap(gauge(CacheSteering)),
	}
}

// PlanSet returns the dsp plan set this session draws transforms from.
func (s *Session) PlanSet() *dsp.PlanSet { return s.plans }

// SynthPlanFor validates the configuration once and returns the session's
// frame front-end plan for it, building it on first use. It panics on an
// invalid config, exactly as Config.Synthesize does.
//
// Two goroutines racing on a cold config both build a plan; LoadOrStore
// keeps exactly one. The loser's plan has already pre-warmed a pooled frame
// buffer, so the winner adopts the loser's pool contents instead of leaving
// them to the collector (and, worse in the pre-session design, instead of
// the loser handing out a plan whose buffers lived in a discarded pool).
func (s *Session) SynthPlanFor(c Config) *SynthPlan {
	if v, ok := s.synthPlans.Load(c); ok {
		return v.(*SynthPlan)
	}
	p := s.newSynthPlan(c)
	actual, loaded := s.synthPlans.LoadOrStore(c, p)
	winner := actual.(*SynthPlan)
	if loaded {
		winner.pool.adoptFrom(p.pool)
	}
	return winner
}

// newSynthPlan builds the frame front-end plan for c against this session's
// caches. See SynthPlan for the field semantics.
func (s *Session) newSynthPlan(c Config) *SynthPlan {
	if err := c.Validate(); err != nil {
		panic(fmt.Sprintf("radar: synthesis plan on invalid config: %v", err))
	}
	lambda := c.Wavelength()
	p := &SynthPlan{
		cfg:       c,
		lambda:    lambda,
		beatK:     2 * c.Slope / em.C,
		dopK:      2 / lambda,
		phaseK:    4 * math.Pi / lambda,
		stepK:     -2 * math.Pi / c.SampleRate,
		rxK:       2 * math.Pi * c.RxSpacing / lambda,
		sigma:     math.Sqrt(c.NoisePerBin()*float64(c.Samples)) / math.Sqrt2,
		rangePlan: s.plans.PlanFor(c.Samples, dsp.Hann),
		steer:     s.steeringFor(c),
		pool:      &framePool{},
	}
	if c.ADCBits > 0 {
		// Levels per polarity; Validate bounded ADCBits to (0, 30], so
		// the shift cannot overflow.
		p.adcLevels = float64(int(1) << (c.ADCBits - 1))
	}
	p.useF32 = c.ADCBits <= 14 && !c.ForceFloat64
	// Pre-warm one frame buffer so the first frame of a read does not pay
	// the high-water-mark allocation inside the synthesis loop.
	p.pool.put(newChanBuf(c.NumRx, c.Samples))
	return p
}

// steeringFor returns the session's cached steering table for the config's
// array geometry, computing it on first use.
func (s *Session) steeringFor(c Config) *steeringTable {
	key := steeringKey{numRx: c.NumRx, spacing: c.RxSpacing, freq: c.CenterFrequency}
	if v, ok := s.steering.Load(key); ok {
		return v.(*steeringTable)
	}
	t := newSteeringTable(c)
	if v, loaded := s.steering.LoadOrStore(key, t); loaded {
		return v.(*steeringTable)
	}
	return t
}

// Clear drops the session's memo caches — synthesis plans and steering
// tables — and zeroes their gauges. Plans already handed out stay valid
// (entries are immutable and each plan owns its frame pool); subsequent
// calls rebuild.
func (s *Session) Clear() {
	s.synthPlans.Clear()
	s.steering.Clear()
}
