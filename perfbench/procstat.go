package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (VmHWM), falling
// back to getrusage's maxrss.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// goStats are the runtime's cumulative GC CPU, total CPU and heap
// allocation counters.
type goStats struct{ gcCPU, totalCPU, allocBytes float64 }

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return goStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
