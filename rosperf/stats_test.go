package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.9, 90},
		{101, 0.5, 51},
		{1, 0.5, 1},
		{200, 0.99, 198}, // rank 198, two beyond: refused below
		{110, 0.9, 99},
	} {
		got, err := quantile(seq(c.n), c.q)
		if c.n == 200 && c.q == 0.99 {
			if err == nil {
				t.Errorf("p99 of 200 samples has 2 beyond it; want refusal, got %v", got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("quantile(1..%d, %g) = %v, %v; want %v", c.n, c.q, got, err, c.want)
		}
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	// p90 of 99 samples sits at rank 90 with 9 samples beyond it.
	if v, err := quantile(seq(99), 0.9); err == nil {
		t.Errorf("p90 of 99 samples = %v; want refusal (9 beyond)", v)
	}
	// 100 samples leave exactly 10 beyond.
	if _, err := quantile(seq(100), 0.9); err != nil {
		t.Errorf("p90 of 100 samples: %v", err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("median of no samples: want an error")
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Due at 10, every sender busy until 60, sent at 61, done at 70.
	s := sample{due: at(10), taken: at(60), sent: at(61), done: at(70)}
	if got := s.latency(); got != 60*time.Millisecond {
		t.Errorf("latency = %v; want 60ms from the due time, not 9ms from the send", got)
	}
	if got := s.lag(); got != 51*time.Millisecond {
		t.Errorf("lag = %v; want 51ms", got)
	}
	if got := s.genLag(); got != time.Millisecond {
		t.Errorf("generator lag = %v; want 1ms (the wait for a sender is backlog)", got)
	}
	// A free sender that sends 5 ms late is the generator's own lag.
	s = sample{due: at(10), taken: at(2), sent: at(15), done: at(20)}
	if got := s.genLag(); got != 5*time.Millisecond {
		t.Errorf("generator lag = %v; want 5ms", got)
	}
}

func TestRunStepChargesStallsToLaterRequests(t *testing.T) {
	// One sender, a request every 10 ms; the first request stalls 80 ms,
	// so the next ones are sent late and their latency must include it.
	st := runStep(100, 4, 1, 1, func(i int) int {
		if i == 0 {
			time.Sleep(80 * time.Millisecond)
		}
		return 0
	})
	s1 := st.samples[1]
	if lat := s1.latency(); lat < 60*time.Millisecond {
		t.Errorf("request 1 latency %v; want >= 60ms (stall behind request 0)", lat)
	}
	if lag := s1.lag(); lag < 60*time.Millisecond {
		t.Errorf("request 1 lag %v; want >= 60ms", lag)
	}
	if g := s1.genLag(); g > 5*time.Millisecond {
		t.Errorf("request 1 generator lag %v; the sender was busy, not late", g)
	}
	if st.attempted != 4 || st.failed != 0 {
		t.Errorf("attempted %d failed %d; want 4, 0", st.attempted, st.failed)
	}
}

func TestJudgeFlagsGeneratorBehind(t *testing.T) {
	t0 := time.Unix(0, 0)
	gap := 10 * time.Millisecond
	st := step{rate: 100, gap: gap, attempted: 100}
	for i := 0; i < 100; i++ {
		due := t0.Add(time.Duration(i) * gap)
		// Each sender was free before the due time but sent 8 ms late.
		st.samples = append(st.samples, sample{due: due, taken: due.Add(-gap), sent: due.Add(8 * time.Millisecond), done: due.Add(12 * time.Millisecond)})
	}
	if v := judge(st, 100); v.ok || !v.invalid {
		t.Errorf("judge = %+v; want an invalid step", v)
	}
	for i := range st.samples {
		st.samples[i].sent = st.samples[i].due
	}
	if v := judge(st, 100); !v.ok || v.invalid {
		t.Errorf("judge = %+v; want a passing step", v)
	}
	if v := judge(st, 5); v.ok {
		t.Errorf("judge with a 5 ms limit = %+v; want p90 12 ms over it", v)
	}
	st.failed = 1
	if v := judge(st, 100); v.ok {
		t.Errorf("judge with a failed read = %+v; want a failing step", v)
	}
}

func TestSearchCapacityFindsThreshold(t *testing.T) {
	g := grid{base: 10, ratio: 1.06}
	want := g.rate(39) // the highest grid rate at or below 100
	if want > 100 || g.rate(40) <= 100 {
		t.Fatalf("grid assumption broken: %v %v", want, g.rate(40))
	}
	for _, k0 := range []int{20, 38, 39, 40, 41, 60} {
		got, probes, err := searchCapacity(g, k0, 2, 30, func(rate float64) probe {
			return probe{Rate: rate, OK: rate <= 100}
		})
		if err != nil || got != want {
			t.Errorf("k0 %d: capacity %v, %v; want %v", k0, got, err, want)
		}
		if len(probes) > 12 {
			t.Errorf("k0 %d: %d probes", k0, len(probes))
		}
	}
	if _, _, err := searchCapacity(g, 5, 2, 30, func(rate float64) probe { return probe{Rate: rate} }); err == nil {
		t.Error("no passing rate: want an error")
	}
}

func TestSearchCapacityAgainstStubHandler(t *testing.T) {
	// One executor with a 2 ms service time serves at most 500 requests/s.
	// With a 20 ms p90 limit the capacity must land within one grid step
	// of 500/s: queueing pushes the p90 over the limit only near
	// saturation, and a step of 300 requests lets an overload of one grid
	// step (6%) queue past the limit, but not a smaller one.
	const service = 2 * time.Millisecond
	var executor sync.Mutex
	handler := func(int) int {
		executor.Lock()
		defer executor.Unlock()
		for start := time.Now(); time.Since(start) < service; {
		}
		return 0
	}
	g := grid{base: 100, ratio: 1.06}
	got, probes, err := searchCapacity(g, 22, 2, 10, func(rate float64) probe {
		return probeOf(runStep(rate, 300, 1, 4, handler), 20)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > 500*g.ratio || got < 300 {
		t.Errorf("capacity %.1f/s; want within [300, 530] (probes %+v)", got, probes)
	}
	if math.IsNaN(got) {
		t.Fatal("NaN capacity")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []spanRec{
		{ID: 1, StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, DurNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, DurNS: 30}, // overlaps span 2: 10..50 covered
		{ID: 4, Parent: 1, StartNS: 90, DurNS: 20}, // runs past the parent: 10 covered
	}
	selfTimes(spans)
	if spans[0].SelfNS != 50 {
		t.Errorf("root self = %d; want 100 - 40 - 10 = 50", spans[0].SelfNS)
	}
	if spans[1].SelfNS != 30 {
		t.Errorf("leaf self = %d; want its duration", spans[1].SelfNS)
	}
}
