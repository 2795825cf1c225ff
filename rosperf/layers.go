package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// perLayer lists every per-layer metric with its unit. A traced run reports
// each one; a layer its workload bypasses reads 0, which is itself the
// bypass prediction (README.md).
var perLayer = []struct{ name, unit string }{
	{"beamshape.shaped_s", "s"},
	{"ros.read_ms", "ms"},
	{"scene.scatterers_ms", "ms"},
	{"radar.synthesize_ms", "ms"},
	{"radar.range_fft_ms", "ms"},
	{"radar.point_cloud_ms", "ms"},
	{"cluster.dbscan_ms", "ms"},
	{"coding.decode_ms", "ms"},
	{"detect.other_ms", "ms"},
	{"radar.frames", "count"},
	{"dsp.fft_calls", "count"},
	{"ros.alloc_kb_per_read", "KiB"},
	{"ros.gc_cycles_per_read", "count"},
	{"rosclient.batch_ms_p50", "ms"},
	{"gen.lag_ms_p90", "ms"},
	{"rosd.read_exec_ms_p50", "ms"},
	{"rosd.overhead_ms_p50", "ms"},
	{"rosd.queue_depth_p50", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.build_ms", "ms"},
	{"rosclient.retries", "count"},
	{"rosd.capacity_rps", "1/s"},
}

// readOut is what the read layers need from one read.
type readOut struct {
	detected bool
	bits     string
	frames   int
	ffts     int64
}

// Trace id ranges of the traced run's request kinds.
const (
	traceReads   = 1
	traceReplays = 1 << 40
	traceDecodes = 2 << 40
	traceBatches = 3 << 40
)

const (
	replayPasses = 5
	decodeRuns   = 21
	// minTracedReads is the least number of traced (and of untraced) reads;
	// the traced run reads for at least half of --seconds.
	minTracedReads = 21
)

// readLayers measures the read pipeline layer by layer at Workers 1: reads
// alternate with and without a ros.read span (their difference is the
// tracing overhead), then the per-frame stages are replayed under spans
// and the decoder is timed on a real pass's samples. detect.other_ms is the
// traced read minus the replayed stages: spotlight, classification and
// orchestration.
func readLayers(tr *tracer, o options, shape readShape, t *tally, read func(seed int64) (readOut, error)) (map[string]metric, error) {
	n := 0
	do := func() (readOut, error) {
		n++
		out, err := read(o.readSeed(n))
		if !t.check(out.detected, out.bits, err) {
			return out, fmt.Errorf("traced read %d: detected %v bits %q: %v", n, out.detected, out.bits, err)
		}
		return out, nil
	}
	if _, err := do(); err != nil { // warm the caches
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var traced, plain []float64
	var last readOut
	end := time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	for len(traced) < minTracedReads || time.Now().Before(end) {
		var err error
		d := tr.span(traceReads+int64(n), 0, "ros.read", func() { last, err = do() })
		if err != nil {
			return nil, err
		}
		traced = append(traced, ms(d))
		t0 := time.Now()
		if _, err := do(); err != nil {
			return nil, err
		}
		plain = append(plain, ms(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	reads := float64(len(traced) + len(plain))
	readMS, _ := median(traced)
	plainMS, _ := median(plain)

	rp, err := newReplay(shape)
	if err != nil {
		return nil, err
	}
	for p := 0; p < replayPasses; p++ {
		rp.pass(tr, traceReplays+int64(p), o.readSeed(n+p))
	}
	u, rss, err := decodeInput(shape, o.readSeed(n))
	if err != nil {
		return nil, err
	}
	for k := 0; k < decodeRuns; k++ {
		if err := rp.decode(tr, traceDecodes+int64(k), u, rss); err != nil {
			return nil, err
		}
	}

	m := map[string]metric{
		"ros.read_ms":            {Value: readMS},
		"radar.frames":           {Value: float64(last.frames)},
		"dsp.fft_calls":          {Value: float64(last.ffts)},
		"ros.alloc_kb_per_read":  {Value: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / reads},
		"ros.gc_cycles_per_read": {Value: float64(after.NumGC-before.NumGC) / reads},
	}
	stages := 0.0
	for _, name := range []string{spanScatterers, spanSynthesize, spanRangeFFT, spanPointCloud, spanDBSCAN, spanDecode} {
		v, err := median(tr.perTrace(name))
		if err != nil {
			return nil, err
		}
		m[name+"_ms"] = metric{Value: v}
		stages += v
	}
	m["detect.other_ms"] = metric{Value: readMS - stages}
	emit("tracing", map[string]any{
		"traced_read_ms_p50": readMS, "untraced_read_ms_p50": plainMS,
		"overhead_pct": 100 * (readMS - plainMS) / plainMS, "reads": len(traced),
	})
	return m, nil
}

// finishTraced sets every per-layer metric's unit, fills the metrics of
// bypassed layers with 0, writes the spans and builds the result.
func finishTraced(tr *tracer, o options, t *tally, m map[string]metric) (*result, error) {
	out := map[string]metric{}
	for _, l := range perLayer {
		v := m[l.name]
		v.Unit = l.unit
		out[l.name] = v
	}
	path := filepath.Join(".bench_build", "rosperf", fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	emit("trace_file", path)
	return t.result(out), nil
}
