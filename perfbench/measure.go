package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"aipan/internal/stats"
)

// procSample is one reading of the process-wide counters a pipeline pass
// is charged with: CPU time, heap allocation totals and GC work.
type procSample struct {
	wall       time.Time
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of GC CPU (runtime/metrics estimate)
	totalCPU   float64 // seconds of Go-runtime-visible CPU
}

var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() (procSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}, fmt.Errorf("getrusage: %w", err)
	}
	ms := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := procSample{
		wall: time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	s.allocs = ms[0].Value.Uint64()
	s.allocBytes = ms[1].Value.Uint64()
	s.gcCycles = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	s.totalCPU = ms[4].Value.Float64()
	return s, nil
}

// procDelta is the cost of one interval between two procSamples.
type procDelta struct {
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPUFrac  float64
}

func deltaOf(a, b procSample) procDelta {
	d := procDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// peakRSSMiB reads this process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(string(fields[1]), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 { return stats.Median(xs) }
