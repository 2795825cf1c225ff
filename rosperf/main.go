// Command rosperf is the repository's benchmark: it drives the read
// pipeline and the read service through their public entry points and
// prints one JSON result line. See README.md for the workloads, metrics and
// the predictions each per-layer metric carries.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash rosperf/run.sh --workload read-canonical|rosd-hot|rosd-churn
//	        --seed N --seconds S --trace 0|1
//	        --rosd-rate R --rosd-limit-ms L
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run, and
// the spans are written under .bench_build/rosperf/. Earlier stdout lines
// stamp the host and carry diagnostics. The exit code is non-zero on any
// wrong-bit read or any error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"ros/internal/sweep"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts reads and checks their output. Safe for concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	// wrongBits counts reads that decoded a tag to bits other than the
	// encoded ones: the program gave a wrong answer, which fails the run.
	wrongBits int
}

// check records one read's outcome and reports whether it succeeded.
func (t *tally) check(detected bool, bits string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil || !detected || bits == "":
		t.failed++
		return false
	case bits != tagBits:
		t.failed++
		t.wrongBits++
		return false
	}
	return true
}

// counts is a tally's totals, as a child process reports them.
type counts struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	WrongBits int `json:"wrong_bits"`
}

func (t *tally) counts() counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return counts{t.attempted, t.failed, t.wrongBits}
}

func (t *tally) add(c counts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += c.Attempted
	t.failed += c.Failed
	t.wrongBits += c.WrongBits
}

// result builds the output line from the tally and the metrics.
func (t *tally) result(m map[string]metric) *result {
	c := t.counts()
	return &result{Correct: c.WrongBits == 0, Attempted: c.Attempted, Failed: c.Failed, Metrics: m}
}

// options are the command-line settings. The rosd offered rate and latency
// limit are fixed in BENCHMARK.json's command, never recomputed per run.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	rosdRate    float64
	rosdLimitMS float64
	child       bool
	measure     bool
}

// readSeed derives read i's seed from the run seed: the program sees only
// these generated inputs.
func (o options) readSeed(i int) int64 { return sweep.SubSeed(o.seed, i) }

// emit prints a JSON line {key: v} to stdout.
func emit(key string, v any) {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return
	}
	fmt.Println(string(b))
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var seed int64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "read-canonical, rosd-hot or rosd-churn")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead")
	flag.Float64Var(&o.rosdRate, "rosd-rate", 0, "fixed offered read rate of the rosd workloads (reads/s; required)")
	flag.Float64Var(&o.rosdLimitMS, "rosd-limit-ms", 0, "batch p90 limit behind rosd.capacity_rps (ms; required)")
	flag.BoolVar(&o.child, "child", false, "internal: run as a read-canonical set-up child")
	flag.BoolVar(&o.measure, "measure", false, "internal: the child also runs the measured phase")
	flag.Parse()
	o.seed, o.trace = seed, trace == 1
	if o.seconds <= 0 || o.rosdRate <= 0 || o.rosdLimitMS <= 0 {
		fmt.Fprintln(os.Stderr, "rosperf: --seconds, --rosd-rate and --rosd-limit-ms must be positive")
		return 2
	}
	if o.child {
		if err := canonicalChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "rosperf child:", err)
			return 1
		}
		return 0
	}

	var res *result
	var err error
	start, steal := time.Now(), stealSeconds()
	switch {
	case o.workload == "read-canonical" && !o.trace:
		res, err = readCanonical(o)
	case o.workload == "read-canonical":
		res, err = readCanonicalTraced(o)
	case o.workload == "rosd-hot" || o.workload == "rosd-churn":
		w := hot
		if o.workload == "rosd-churn" {
			w = churn
		}
		if o.trace {
			res, err = serviceTraced(o, w)
		} else {
			res, err = service(o, w)
		}
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	emit("run", map[string]any{"workload": o.workload, "seed": o.seed, "trace": o.trace,
		"wall_s": time.Since(start).Seconds(), "steal_s": stealSeconds() - steal})
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "rosperf: a read decoded the wrong bits")
		return 1
	}
	return 0
}
