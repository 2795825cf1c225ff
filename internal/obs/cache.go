package obs

import (
	"sync"
	"sync/atomic"
)

// CountedMap is a sync.Map whose entry count is mirrored into a Gauge, for
// process-lifetime memo caches (FFT plans, steering tables, window tables)
// that otherwise grow silently. The count tracks successful first stores —
// exactly the cache's resident entries, since memo caches never overwrite.
//
// Retention contract for caches built on CountedMap: entries are immutable,
// shared, and live until Clear. The working set is bounded by the number of
// distinct keys the process touches (for this codebase: distinct radar
// configurations and transform sizes), not by time — a long-lived server
// cycling through unbounded configurations bounds memory by giving each
// configuration its own engine and closing it when retired (or by watching
// the gauge). Clear is safe under concurrency: values already handed out
// keep working, and in-flight fills simply repopulate.
type CountedMap struct {
	m sync.Map
	n atomic.Int64
	g *Gauge
}

// CacheEntries is the one labeled gauge every memo cache reports its
// resident entry count under: cache names the cache kind, engine the owning
// engine (DefaultEngine for the process-wide default handles). The capacity
// bounds label-set growth from engine churn; closing an engine deletes its
// sets, so only leaked engines consume it permanently.
var CacheEntries = Default.GaugeVecCapacity(
	"ros_engine_cache_entries",
	"Resident entries per engine-owned cache.",
	1024,
	"cache", "engine",
)

// DefaultEngine is the engine label of the process-wide default caches.
const DefaultEngine = "default"

// DefaultCacheGauge returns the entry gauge of one default-engine cache.
func DefaultCacheGauge(cache string) *Gauge { return CacheEntries.With(cache, DefaultEngine) }

// NewCountedMap returns a map that mirrors its entry count into g.
func NewCountedMap(g *Gauge) *CountedMap {
	return &CountedMap{g: g}
}

// Load returns the value stored under key, if any.
func (c *CountedMap) Load(key any) (any, bool) { return c.m.Load(key) }

// LoadOrStore returns the existing value for key if present, otherwise it
// stores value and bumps the entry gauge.
func (c *CountedMap) LoadOrStore(key, value any) (any, bool) {
	actual, loaded := c.m.LoadOrStore(key, value)
	if !loaded {
		c.g.Set(float64(c.n.Add(1)))
	}
	return actual, loaded
}

// Len returns the resident entry count.
func (c *CountedMap) Len() int { return int(c.n.Load()) }

// Clear drops every entry and zeroes the gauge.
func (c *CountedMap) Clear() {
	c.m.Range(func(k, _ any) bool {
		c.m.Delete(k)
		return true
	})
	c.n.Store(0)
	c.g.Set(0)
}
