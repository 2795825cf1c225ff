package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"ros"
)

// setupRuns is how many fresh processes a read-canonical run starts: each
// pays the per-process beam-shaping cost before its first read, and
// setup_s is their median.
const setupRuns = 3

// childReport is what a read-canonical child process prints last.
type childReport struct {
	Counts       counts  `json:"counts"`
	P50MS        float64 `json:"p50_ms,omitempty"`
	P90MS        float64 `json:"p90_ms,omitempty"`
	ClosedReads  int     `json:"closed_loop_reads,omitempty"`
	CPUMSPerRead float64 `json:"cpu_ms_per_read,omitempty"`
	MaxRSSMB     float64 `json:"max_rss_mb,omitempty"`
}

// readCanonical runs the canonical read workload: setupRuns fresh processes
// each time process start to first read; the first also measures the
// closed loop.
func readCanonical(o options) (*result, error) {
	emit("host", stampHost())
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var t tally
	var setups []float64
	var rep childReport
	for k := 0; k < setupRuns; k++ {
		setup, r, err := runChild(exe, o, k == 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		t.add(r.Counts)
		if k == 0 {
			rep = r
		}
	}
	setup, _ := median(setups)
	emit("diagnostics", map[string]any{"setup_s": setups, "closed_loop_reads": rep.ClosedReads})
	return t.result(map[string]metric{
		"setup_s":         {setup, "s"},
		"p50_ms":          {rep.P50MS, "ms"},
		"p90_ms":          {rep.P90MS, "ms"},
		"cpu_ms_per_read": {rep.CPUMSPerRead, "ms"},
		"max_rss_mb":      {rep.MaxRSSMB, "MiB"},
	}), nil
}

// runChild starts one child process and returns the time from its start
// to its first read's return, with its report.
func runChild(exe string, o options, measure bool) (time.Duration, childReport, error) {
	var rep childReport
	cmd := exec.Command(exe, "--child", "--measure="+strconv.FormatBool(measure),
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--rosd-rate", strconv.FormatFloat(o.rosdRate, 'g', -1, 64),
		"--rosd-limit-ms", strconv.FormatFloat(o.rosdLimitMS, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, rep, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, rep, err
	}
	var setup time.Duration
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case string(line) == "ready":
			setup = time.Since(start)
		default:
			if err := json.Unmarshal(line, &rep); err != nil {
				err = fmt.Errorf("child output %q: %w", line, err)
				_ = cmd.Wait()
				return 0, rep, err
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, rep, fmt.Errorf("child: %w", err)
	}
	if setup == 0 {
		return 0, rep, fmt.Errorf("child exited before its first read")
	}
	return setup, rep, nil
}

// canonicalChild is one fresh read-canonical process: it builds the tag and
// reader, reads once and says "ready"; a measuring child then runs the
// closed loop for --seconds.
func canonicalChild(o options) error {
	var t tally
	tag, err := ros.NewTag(tagBits)
	if err != nil {
		return err
	}
	reader := ros.NewReader()
	read := func(i int) bool {
		rd, err := reader.Read(tag, ros.ReadOptions{Seed: o.readSeed(i)})
		if rd == nil {
			return t.check(false, "", err)
		}
		return t.check(rd.Detected, rd.Bits, err)
	}
	read(0)
	fmt.Println("ready")
	rep := childReport{}
	if o.measure {
		if err := closedLoop(o, read, &rep); err != nil {
			return err
		}
		rep.MaxRSSMB = maxRSSMB()
	}
	rep.Counts = t.counts()
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// closedLoop reads back to back for --seconds, one client, and fills the
// latency and CPU fields of rep.
func closedLoop(o options, read func(i int) bool, rep *childReport) error {
	var lat []float64
	ok := 0
	runtime.GC() // start from the same GC phase every run, as runStep does
	cpu0 := cpuTime()
	end := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 1; time.Now().Before(end); i++ {
		t0 := time.Now()
		if read(i) {
			ok++
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	cpu := cpuTime() - cpu0
	if ok == 0 {
		return fmt.Errorf("no closed-loop read succeeded")
	}
	rep.ClosedReads = len(lat)
	rep.CPUMSPerRead = ms(cpu) / float64(ok)
	var err error
	if rep.P50MS, err = median(lat); err != nil {
		return err
	}
	rep.P90MS, err = quantile(lat, 0.9)
	return err
}

// readCanonicalTraced is read-canonical's traced run, in one process: the
// first ros.NewTag under a span, then the read layers.
func readCanonicalTraced(o options) (*result, error) {
	emit("host", stampHost())
	tr := newTracer()
	var tag *ros.Tag
	var err error
	shaped := tr.span(0, 0, "beamshape.shaped", func() { tag, err = ros.NewTag(tagBits) })
	if err != nil {
		return nil, err
	}
	reader := ros.NewReader()
	var t tally
	m, err := readLayers(tr, o, canonicalShape, &t, func(seed int64) (readOut, error) {
		rd, err := reader.ReadContext(context.Background(), tag, ros.ReadOptions{Seed: seed, Workers: 1})
		if rd == nil {
			return readOut{}, err
		}
		return readOut{rd.Detected, rd.Bits, rd.Stats.Frames, rd.Stats.FFTCalls}, err
	})
	if err != nil {
		return nil, err
	}
	m["beamshape.shaped_s"] = metric{Value: shaped.Seconds()}
	return finishTraced(tr, o, &t, m)
}
