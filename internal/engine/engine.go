// Package engine ties the per-layer resource handles — dsp.PlanSet,
// radar.Session, scene.ResponseCache, radar.ScanStatePool — into one Engine
// owning every piece of memoized state a radar+scene configuration
// accumulates: transform plans, steering tables, scene-response memos,
// pooled frame buffers, and scan states. An Engine is constructed once per
// configuration handle, passed explicitly through the simulation and
// detection layers, and released deterministically with Close, which drops
// the caches and their metric label sets in one step. Default is the one
// process-wide Engine behind the per-package default handles, for code that
// never asks for its own; an Engine from New never shares state with it or
// with another Engine.
package engine

import (
	"fmt"
	"sync/atomic"

	"ros/internal/dsp"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/scene"
)

// nextID numbers anonymous engines.
var nextID atomic.Uint64

// Engine owns the memoized state for one radar+scene configuration. The
// exported handles are immutable after New; the Engine is safe for
// concurrent use, including Close racing in-flight reads (values already
// handed out stay valid — Close only drops cache entries and metrics).
type Engine struct {
	id string
	// Plans owns the transform memo caches (fused window+FFT plans, window
	// tables, twiddle tables, chirp plans).
	Plans *dsp.PlanSet
	// Session owns the radar memo caches (synthesis plans with their frame
	// pools, steering tables), drawing transforms from Plans.
	Session *radar.Session
	// Responses owns the scene-response memo.
	Responses *scene.ResponseCache
	// ScanStates recycles per-worker incremental scan states.
	ScanStates *radar.ScanStatePool

	// labels records the cache label sets registered under obs.CacheEntries,
	// so Close can delete exactly what New created.
	labels [][]string
	closed atomic.Bool
}

// New returns a fresh Engine whose caches report under
// ros_engine_cache_entries{cache,engine=id}. An empty id is replaced with a
// unique generated one.
func New(id string) *Engine {
	if id == "" {
		id = fmt.Sprintf("engine-%d", nextID.Add(1))
	}
	e := &Engine{id: id, ScanStates: &radar.ScanStatePool{}}
	gauge := func(cache string) *obs.Gauge {
		e.labels = append(e.labels, []string{cache, e.id})
		return obs.CacheEntries.With(cache, e.id)
	}
	e.Plans = dsp.NewPlanSet(gauge)
	e.Session = radar.NewSession(e.Plans, gauge)
	e.Responses = scene.NewResponseCache(gauge(scene.CacheResponses), 0)
	return e
}

// defaultEngine gathers the per-layer default handles, which report under
// ros_engine_cache_entries{engine="default"}.
var defaultEngine = &Engine{
	id:         obs.DefaultEngine,
	Plans:      dsp.DefaultPlanSet(),
	Session:    radar.DefaultSession(),
	Responses:  scene.DefaultResponseCache(),
	ScanStates: &radar.ScanStatePool{},
}

// Default returns the process-wide Engine: the default plan set, radar
// session and scene response cache behind the package-level entry points,
// plus a shared scan-state pool. It lives for the whole process: nothing
// closes it.
func Default() *Engine { return defaultEngine }

// ID returns the engine's metric label value.
func (e *Engine) ID() string { return e.id }

// Closed reports whether Close has run.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Close drops every cache the engine owns and deletes its label sets from
// the shared gauge vector. Idempotent; safe to call while reads against the
// engine are still in flight (they keep the plans and memo entries they
// already hold, and any entry repopulated by a straggler after Close only
// occupies memory until the straggler finishes — the gauges are already
// unregistered).
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.Responses.Clear()
	e.Session.Clear()
	e.Plans.Clear()
	for _, ls := range e.labels {
		obs.CacheEntries.Delete(ls...)
	}
}
