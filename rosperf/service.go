package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ros/internal/engine"
	"ros/internal/obs"
	"ros/internal/rosclient"
	"ros/internal/rosd"
	"ros/internal/sim"
)

// serviceWorkload is an rosd workload: the same batches at the same rate,
// over a configuration set that either fits the server's 64-engine LRU
// (hot) or cycles through it (churn).
type serviceWorkload struct {
	configs int
	// gridStart indexes the capacity grid (6% steps from the fixed offered
	// rate) where the capacity search starts: just under the capacity the
	// workload showed when the benchmark was written.
	gridStart int
}

var (
	hot   = serviceWorkload{configs: 32, gridStart: 23} // 48·1.06^23 ≈ 184 reads/s
	churn = serviceWorkload{configs: 96, gridStart: 19} // 48·1.06^19 ≈ 145 reads/s
)

const (
	gridStride     = 2
	maxSearchSteps = 8
	// stepRequests is the batches per capacity step: twice what a p90 with
	// ten samples beyond it needs, so a step lasts a few seconds and one
	// stall of the shared host does not decide it.
	stepRequests = 220
	batchReads   = 4
	tenants      = 4
	// serviceSetupRuns is how many servers a run starts and warms;
	// setup_s is the median.
	serviceSetupRuns = 5
)

// svc is one in-process rosd server at its defaults, and the rosclient the
// generator sends through, limited to nproc connections.
type svc struct {
	o         options
	w         serviceWorkload
	srv       *rosd.Server
	transport *http.Transport
	client    *rosclient.Client
	url       string
	next      int // next batch index
}

// startService starts a server, waits until /readyz answers 200, and
// sends one warm-up batch per configuration, so each configuration's
// engine is built and its caches filled.
func startService(o options, w serviceWorkload, t *tally) (*svc, error) {
	srv := rosd.New(rosd.Config{})
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	conns := runtime.NumCPU()
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	s := &svc{o: o, w: w, srv: srv, transport: tp, url: "http://" + srv.Addr(),
		client: rosclient.New(rosclient.Config{BaseURL: "http://" + srv.Addr(), HTTPClient: &http.Client{Transport: tp}})}
	if err := s.awaitReady(); err != nil {
		s.close()
		return nil, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan int, w.configs)
	for c := 0; c < w.configs; c++ {
		jobs <- c
	}
	close(jobs)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				req := rosd.BatchRequest{Reads: []rosd.ReadRequest{s.read(c, o.readSeed(1<<30+c), "warmup")}}
				if failed := s.post(req, t, nil); failed > 0 {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm-up read of configuration %d failed", c)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		s.close()
		return nil, firstErr
	}
	return s, nil
}

// awaitReady polls /readyz until it answers 200.
func (s *svc) awaitReady() error {
	hc := &http.Client{Transport: s.transport}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rosd not ready after 10 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *svc) close() {
	s.transport.CloseIdleConnections()
	s.srv.Close()
}

// read is one read of configuration c. Configurations differ in standoff,
// 5 mm apart (3.0 to 3.475 m), so each is its own scene and its own engine.
func (s *svc) read(c int, seed int64, tenant string) rosd.ReadRequest {
	return rosd.ReadRequest{
		Tenant:      tenant,
		Bits:        tagBits,
		Standoff:    standoff + 0.005*float64(c),
		FrameBudget: serviceShape.frames,
		Workers:     1,
		Seed:        seed,
	}
}

// batch is the b-th batch of the stream: one tenant's batchReads reads,
// configurations advancing one per read round-robin over the workload's
// set, tenants advancing one per batch.
func (s *svc) batch(b int) rosd.BatchRequest {
	req := rosd.BatchRequest{Reads: make([]rosd.ReadRequest, batchReads)}
	tenant := fmt.Sprintf("tenant-%d", b%tenants)
	for j := range req.Reads {
		n := b*batchReads + j
		req.Reads[j] = s.read(n%s.w.configs, s.o.readSeed(n), tenant)
	}
	return req
}

var errMissingResult = errors.New("batch response is missing a result")

// post sends one batch through the client, checks every read, and returns
// how many failed: a client error (a typed error, or a 429 that outlasted
// the retries) fails the whole batch. res receives the response when
// non-nil.
func (s *svc) post(req rosd.BatchRequest, t *tally, res *rosd.BatchResponse) int {
	if res == nil {
		res = &rosd.BatchResponse{}
	}
	failed := 0
	if err := s.client.Do(context.Background(), "/v1/read", req, res); err != nil {
		for range req.Reads {
			t.check(false, "", err)
		}
		return len(req.Reads)
	}
	for j := range req.Reads {
		if j >= len(res.Results) {
			t.check(false, "", errMissingResult)
			failed++
			continue
		}
		r := &res.Results[j]
		var err error
		if r.Error != nil {
			err = fmt.Errorf("%s: %s", r.Error.Kind, r.Error.Message)
		}
		if !t.check(r.Detected, r.Bits, err) {
			failed++
		}
	}
	return failed
}

// step offers n batches at rate reads per second.
func (s *svc) step(rate float64, n int, t *tally, do func(b int) int) step {
	base := s.next
	s.next += n
	if do == nil {
		do = func(b int) int { return s.post(s.batch(b), t, nil) }
	}
	return runStep(rate, n, batchReads, runtime.NumCPU(), func(j int) int { return do(base + j) })
}

// measureParts is how many parts the fixed-rate phase is split into. Each
// part is its own step and so starts right after a forced GC.
const measureParts = 4

// fixedBatches is the fixed-rate phase's batch count: --seconds of batches
// at the fixed rate.
func (o options) fixedBatches() int {
	return int(math.Ceil(o.seconds * o.rosdRate / batchReads))
}

// service runs an rosd workload: serviceSetupRuns timed set-ups, then the
// fixed-rate phase in measureParts parts.
func service(o options, w serviceWorkload) (*result, error) {
	emit("host", stampHost())
	var t tally
	var setups []float64
	var s *svc
	for k := 0; k < serviceSetupRuns; k++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startService(o, w, &t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	var lat, lags []float64
	var cpu time.Duration
	completed, invalid := 0, false
	n := o.fixedBatches()
	for k := 0; k < measureParts; k++ {
		st := s.step(o.rosdRate, (k+1)*n/measureParts-k*n/measureParts, &t, nil)
		cpu += st.cpu
		lat = append(lat, st.each(sample.latency)...)
		lags = append(lags, st.each(sample.lag)...)
		completed += st.attempted - st.failed
		invalid = invalid || judge(st, o.rosdLimitMS).invalid
	}
	if completed == 0 {
		return nil, fmt.Errorf("no read completed at the fixed rate")
	}
	p50, err := median(lat)
	if err != nil {
		return nil, err
	}
	p90, err := quantile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	lagP90, _ := quantile(lags, 0.9)
	setup, _ := median(setups)
	emit("diagnostics", map[string]any{
		"setup_s": setups, "fixed_batches": len(lat), "gen_lag_ms_p90": lagP90,
		"gen_lag_ms_max": lags[len(lags)-1], "fixed_invalid": invalid,
	})
	return t.result(map[string]metric{
		"setup_s":         {setup, "s"},
		"p50_ms":          {p50, "ms"},
		"p90_ms":          {p90, "ms"},
		"cpu_ms_per_read": {ms(cpu) / float64(completed), "ms"},
		"max_rss_mb":      {maxRSSMB(), "MiB"},
	}), nil
}

// serviceTraced is an rosd workload's traced run: the fixed-rate phase
// with a span per batch from its due time and a rosclient.Do span inside
// it, the server's per-read execution times and counter deltas, the
// capacity search, an engine build probe, and the read layers of the
// service's read shape.
func serviceTraced(o options, w serviceWorkload) (*result, error) {
	emit("host", stampHost())
	var t tally
	s, err := startService(o, w, &t)
	if err != nil {
		return nil, err
	}
	defer s.close()
	tr := newTracer()
	before := obs.Default.Snapshot()
	stats0 := s.client.Stats()

	n := o.fixedBatches()
	roots := make([]int64, n)
	var mu sync.Mutex
	var doMS, execMS, overheadMS []float64
	base := s.next
	fixed := s.step(o.rosdRate, n, &t, func(b int) int {
		j := b - base
		roots[j] = tr.id()
		var res rosd.BatchResponse
		id := tr.id()
		start := time.Now()
		failed := s.post(s.batch(b), &t, &res)
		end := time.Now()
		tr.add(id, traceBatches+int64(b), roots[j], "rosclient.do", start, end)
		slowest := 0.0
		mu.Lock()
		defer mu.Unlock()
		for _, r := range res.Results {
			execMS = append(execMS, r.WallMS)
			slowest = math.Max(slowest, r.WallMS)
		}
		doMS = append(doMS, ms(end.Sub(start)))
		overheadMS = append(overheadMS, ms(end.Sub(start))-slowest)
		return failed
	})
	for j, smp := range fixed.samples {
		tr.add(roots[j], traceBatches+int64(base+j), 0, "gen.batch", smp.due, smp.done)
	}
	after := obs.Default.Snapshot()
	retries := s.client.Stats().Retries - stats0.Retries

	m := map[string]metric{}
	lagP90, err := quantile(fixed.each(sample.lag), 0.9)
	if err != nil {
		return nil, err
	}
	m["gen.lag_ms_p90"] = metric{Value: lagP90}
	for name, xs := range map[string][]float64{
		"rosclient.batch_ms_p50": doMS, "rosd.read_exec_ms_p50": execMS, "rosd.overhead_ms_p50": overheadMS,
	} {
		v, err := median(xs)
		if err != nil {
			return nil, err
		}
		m[name] = metric{Value: v}
	}
	hits := counterDelta(before, after, "ros_rosd_engine_hits_total")
	misses := counterDelta(before, after, "ros_rosd_engine_misses_total")
	if hits+misses > 0 {
		m["engine.hit_ratio"] = metric{Value: float64(hits) / float64(hits+misses)}
	}
	m["engine.evictions"] = metric{Value: float64(counterDelta(before, after, "ros_rosd_engine_evictions_total"))}
	m["rosd.queue_depth_p50"] = metric{Value: histDeltaQuantile(before, after, "ros_rosd_queue_depth", 0.5)}
	m["rosclient.retries"] = metric{Value: float64(retries)}
	capacity, probes, err := searchCapacity(grid{o.rosdRate, 1.06}, w.gridStart, gridStride, maxSearchSteps,
		func(rate float64) probe { return probeOf(s.step(rate, stepRequests, &t, nil), o.rosdLimitMS) })
	if err != nil {
		return nil, err
	}
	emit("capacity_probes", probes)
	m["rosd.capacity_rps"] = metric{Value: capacity}
	build, err := engineBuildMS(o)
	if err != nil {
		return nil, err
	}
	m["engine.build_ms"] = metric{Value: build}

	eng := engine.New("")
	defer eng.Close()
	layers, err := readLayers(tr, o, serviceShape, &t, func(seed int64) (readOut, error) {
		return simRead(serviceShape, seed, eng)
	})
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	return finishTraced(tr, o, &t, m)
}

// simRead runs one pass of the shape on eng, as an rosd executor does.
func simRead(shape readShape, seed int64, eng *engine.Engine) (readOut, error) {
	cfg := shape.driveBy(seed)
	cfg.Engine = eng
	out, err := sim.RunContext(context.Background(), cfg)
	if out == nil {
		return readOut{}, err
	}
	if out.Detection != nil {
		out.Detection.Span = nil
	}
	out.Span.Release()
	return readOut{out.Detected, out.Bits, out.Stats.Frames, out.Stats.FFTCalls}, err
}

// engineBuildMS times one service read on a fresh engine minus the same
// read on the now-warm engine: the cost of building an engine, median of
// five.
func engineBuildMS(o options) (float64, error) {
	var d []float64
	for k := 0; k < 5; k++ {
		eng := engine.New("")
		seed := o.readSeed(1<<31 + k)
		t0 := time.Now()
		if _, err := simRead(serviceShape, seed, eng); err != nil {
			eng.Close()
			return 0, err
		}
		cold := time.Since(t0)
		t1 := time.Now()
		if _, err := simRead(serviceShape, seed, eng); err != nil {
			eng.Close()
			return 0, err
		}
		warm := time.Since(t1)
		eng.Close()
		d = append(d, ms(cold-warm))
	}
	return median(d)
}

// counterDelta is the growth of a scalar counter between two snapshots.
func counterDelta(before, after obs.Snapshot, name string) int64 {
	val := func(s obs.Snapshot) int64 {
		for _, c := range s.Counters {
			if c.Name == name && len(c.Labels) == 0 {
				return c.Value
			}
		}
		return 0
	}
	return val(after) - val(before)
}

// histDeltaQuantile is the q-quantile of the observations a scalar
// histogram gained between two snapshots, as the upper bound of the bucket
// it falls in (the previous bound for the unbounded last bucket).
func histDeltaQuantile(before, after obs.Snapshot, name string, q float64) float64 {
	find := func(s obs.Snapshot) *obs.HistogramSnap {
		for i := range s.Histograms {
			if h := &s.Histograms[i]; h.Name == name && len(h.Labels) == 0 {
				return h
			}
		}
		return nil
	}
	b, a := find(before), find(after)
	if a == nil || len(a.Buckets) == 0 {
		return 0
	}
	delta := func(i int) int64 {
		c := a.Buckets[i].Count
		if b != nil && i < len(b.Buckets) {
			c -= b.Buckets[i].Count
		}
		return c
	}
	total := delta(len(a.Buckets) - 1)
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	for i := range a.Buckets {
		if delta(i) >= target {
			if math.IsInf(a.Buckets[i].LE, 1) && i > 0 {
				return a.Buckets[i-1].LE
			}
			return a.Buckets[i].LE
		}
	}
	return 0
}
