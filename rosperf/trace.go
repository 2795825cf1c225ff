package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one finished span. Spans of one request (a read, a replayed
// pass, a batch) share a Trace id; Parent is the span that caused this one
// (0 for a root).
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   int64  `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory for the traced run; write computes self
// times and saves them when the run ends. The benchmark records spans in
// its own code, around its calls into each layer.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	last  int64
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, trace, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(),
		DurNS:   end.Sub(start).Nanoseconds(),
	})
}

// span runs fn inside a span and returns the span's duration.
func (t *tracer) span(trace, parent int64, name string, fn func()) time.Duration {
	id := t.id()
	start := time.Now()
	fn()
	end := time.Now()
	t.add(id, trace, parent, name, start, end)
	return end.Sub(start)
}

// perTrace sums the named spans of each trace, in milliseconds.
func (t *tracer) perTrace(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Trace] += float64(s.DurNS) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// selfTimes fills SelfNS: a span's duration minus the part of its interval
// its children cover (overlapping children count once).
func selfTimes(spans []spanRec) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.StartNS + s.DurNS})
		}
	}
	for i := range spans {
		s := &spans[i]
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), lo
		for _, c := range iv {
			a, b := max(c[0], cur), min(c[1], hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		s.SelfNS = s.DurNS - covered
	}
}

// write saves every span, with self times, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
