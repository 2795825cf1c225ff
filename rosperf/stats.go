package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer is a guess about one or two outliers, not a
// statistic, so quantile refuses it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place): the smallest sample with at least q·n samples at or below it. It
// refuses any percentile but the median that has fewer than minBeyond
// samples above its rank.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.2f of no samples", q)
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("quantile %.2f outside (0, 1]", q)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if q != 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)",
			100*q, n, n-rank, minBeyond)
	}
	return xs[rank-1], nil
}

// median is the nearest-rank median.
func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// schedule is an open-loop arrival plan: request i is due at start + i·gap,
// whether or not earlier requests have finished.
type schedule struct {
	start time.Time
	gap   time.Duration
}

// due returns request i's due time.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.gap) }

// sample is one open-loop request as the generator saw it: due on the
// schedule, taken by a free sender, sent, and done.
type sample struct {
	due, taken, sent, done time.Time
}

// latency is the request's latency from its due time, not its send time:
// a stall that delays later sends counts against them, so a slow server
// cannot hide behind a generator that waits for it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// genLag is the part of the lag the generator itself caused: the delay
// between the request being both due and held by a free sender, and its
// send. Lag while every sender waits on an earlier reply is the program's
// backlog, not the generator's.
func (s sample) genLag() time.Duration {
	ready := s.due
	if s.taken.After(ready) {
		ready = s.taken
	}
	return s.sent.Sub(ready)
}

// step is one open-loop phase at a fixed offered rate, as the generator
// recorded it.
type step struct {
	// rate is the offered rate in reads per second.
	rate float64
	// gap is the schedule's inter-arrival time per request.
	gap time.Duration
	// samples holds one entry per request, in schedule order.
	samples []sample
	// attempted and failed count reads (a request may carry several).
	attempted, failed int
	// cpu is the process's user+sys CPU over the step.
	cpu time.Duration
}

// runStep offers n requests of perReq reads each at rate reads per second,
// from conns senders. A sender takes the next request in schedule order,
// waits for its due time, and calls do, which performs the request and
// returns how many of its reads failed. runStep returns once every request
// has finished, so no backlog carries into the next step. Each step starts
// right after a forced GC: with a heap of a few hundred MiB a GC cycle
// comes every few seconds, and whether one or two land in a step otherwise
// decides its tail latency and CPU.
func runStep(rate float64, n, perReq, conns int, do func(i int) int) step {
	runtime.GC()
	st := step{
		rate:      rate,
		gap:       time.Duration(float64(time.Second) * float64(perReq) / rate),
		samples:   make([]sample, n),
		attempted: n * perReq,
	}
	failed := make([]int, n)
	cpu0 := cpuTime()
	sched := schedule{start: time.Now().Add(time.Millisecond), gap: st.gap}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				taken := time.Now()
				due := sched.due(i)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				failed[i] = do(i)
				st.samples[i] = sample{due: due, taken: taken, sent: sent, done: time.Now()}
			}
		}()
	}
	wg.Wait()
	st.cpu = cpuTime() - cpu0
	for _, f := range failed {
		st.failed += f
	}
	return st
}

// each applies f to every sample, in milliseconds: st.each(sample.latency)
// is the latency of every request from its due time.
func (st step) each(f func(sample) time.Duration) []float64 {
	out := make([]float64, len(st.samples))
	for i, s := range st.samples {
		out[i] = ms(f(s))
	}
	return out
}

// verdict judges a step against a latency limit.
type verdict struct {
	// ok: p90 latency under the limit, no failed read, no growing backlog.
	ok bool
	// invalid marks a step whose generator fell behind schedule while a
	// sender was free, so the program had room for the request: the
	// generator, not the program, set the pace, and the step says nothing
	// about the program's capacity.
	invalid bool
	p90MS   float64
	reason  string
}

// judge applies the capacity criteria to a step. The backlog grows when
// the median send lag of the last third of the schedule exceeds that of
// the first third by more than half the limit. The generator fell behind
// when its own lag's p90 exceeds half the inter-arrival gap.
func judge(st step, limitMS float64) verdict {
	p90, err := quantile(st.each(sample.latency), 0.9)
	if err != nil {
		return verdict{reason: err.Error()}
	}
	v := verdict{p90MS: p90}
	lags := st.each(sample.lag)
	third := len(lags) / 3
	first, _ := median(append([]float64(nil), lags[:third]...))
	last, _ := median(append([]float64(nil), lags[len(lags)-third:]...))
	genP90, _ := quantile(st.each(sample.genLag), 0.9)
	v.invalid = genP90 > ms(st.gap)/2
	switch {
	case st.failed > 0:
		v.reason = fmt.Sprintf("%d of %d reads failed", st.failed, st.attempted)
	case p90 > limitMS:
		v.reason = fmt.Sprintf("p90 %.1f ms over the %.0f ms limit", p90, limitMS)
	case last-first > limitMS/2:
		v.reason = fmt.Sprintf("backlog grew: send lag %.1f -> %.1f ms", first, last)
	case v.invalid:
		v.reason = fmt.Sprintf("generator behind: its own lag p90 %.1f ms", genP90)
	default:
		v.ok = true
	}
	return v
}

// probe records one step of a capacity search.
type probe struct {
	Rate    float64 `json:"rate_rps"`
	OK      bool    `json:"ok"`
	Invalid bool    `json:"invalid,omitempty"`
	P90MS   float64 `json:"p90_ms"`
	Reason  string  `json:"reason,omitempty"`
}

// probeOf judges a capacity step into a probe record.
func probeOf(st step, limitMS float64) probe {
	v := judge(st, limitMS)
	return probe{Rate: st.rate, OK: v.ok, Invalid: v.invalid, P90MS: v.p90MS, Reason: v.reason}
}

// grid is the geometric rate grid a capacity search walks: rate k is
// base·ratio^k. The ratio is the search's resolution.
type grid struct {
	base, ratio float64
}

func (g grid) rate(k int) float64 { return g.base * math.Pow(g.ratio, float64(k)) }

// searchCapacity returns the highest grid rate at which try passes,
// assuming passing is monotone in the rate. It starts at index k0 and steps
// by stride, doubling the stride while the verdict stays the same, until it
// has bracketed the boundary; then it bisects the bracket down to adjacent
// grid points. It gives up after maxSteps probes, returning the highest
// pass seen; an error means no probed rate passed.
func searchCapacity(g grid, k0, stride, maxSteps int, try func(rate float64) probe) (float64, []probe, error) {
	lo, hi := -1, -1 // highest passing and lowest failing index seen
	k := k0
	var probes []probe
	for len(probes) < maxSteps {
		p := try(g.rate(k))
		probes = append(probes, p)
		if p.OK {
			lo = k
		} else {
			hi = k
		}
		switch {
		case lo >= 0 && hi >= 0 && hi-lo <= 1:
			return g.rate(lo), probes, nil
		case hi < 0:
			k = lo + stride
			stride *= 2
		case lo < 0:
			if k == 0 {
				return 0, probes, fmt.Errorf("capacity below the lowest grid rate %.1f/s", g.rate(0))
			}
			k = max(hi-stride, 0)
			stride *= 2
		default:
			k = (lo + hi) / 2
		}
	}
	if lo < 0 {
		return 0, probes, fmt.Errorf("no rate passed in %d probes", maxSteps)
	}
	return g.rate(lo), probes, nil
}
