package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealSeconds is the CPU time the hypervisor has taken from this machine
// so far, summed over CPUs (the steal column of /proc/stat, in USER_HZ
// ticks of 10 ms); -1 when unavailable. Its growth over a run is a
// diagnostic for a slow run.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}

// hostStamp identifies the machine a run measured on. The calibration time
// is a diagnostic for explaining an outlier run, never a divisor: on a
// shared host the program and the kernel drift by different amounts.
type hostStamp struct {
	CPUModel      string  `json:"cpu_model"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CalibrationMS float64 `json:"calibration_ms"`
}

func stampHost() hostStamp {
	return hostStamp{
		CPUModel:      cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CalibrationMS: calibrate(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times a fixed single-threaded kernel (a dependent chain of
// multiply-adds over a small table, so it exercises the core and L1, not
// the memory bus) and returns the median of five runs in milliseconds.
func calibrate() float64 {
	table := make([]float64, 1024)
	for i := range table {
		table[i] = 1 + float64(i)/4096
	}
	runs := make([]float64, 5)
	for r := range runs {
		t0 := time.Now()
		acc := 1.0
		for i := 0; i < 4_000_000; i++ {
			acc = acc*table[i&1023] + 1e-9
			if acc > 1e6 {
				acc = 1
			}
		}
		runs[r] = ms(time.Since(t0))
		sink += acc
	}
	m, _ := median(runs)
	return m
}

// sink keeps the calibration result live so the loop is not optimized out.
var sink float64
