package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the process's host-side counters: wall
// clock, user+sys CPU from getrusage, and the Go runtime's allocation,
// GC-CPU and heap counters. Two readings bracket a measurement window.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate (same timebase as gcCPU)
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleHost() hostSample {
	s := hostSample{wall: time.Now(), cpu: processCPU()}
	ms := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.allocObjs = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.totalCPU = ms[3].Value.Float64()
	return s
}

// processCPU is the process's user+sys CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapObjectsBytes reads the heap currently occupied by objects, live or
// not yet swept — sampled at round boundaries for the peak heap.
func heapObjectsBytes() uint64 {
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(ms)
	return ms[0].Value.Uint64()
}

// liveHeapBytes forces a GC and returns the heap it marked live.
func liveHeapBytes() uint64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return ms[0].Value.Uint64()
}

// window is the difference between two host samples.
type window struct {
	wall, cpu             time.Duration
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func between(a, b hostSample) window {
	return window{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
	}
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(n=4), the method the steadiness check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// provenance describes the host a result was measured on.
type provenance struct {
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	CPUModel   string     `json:"cpu_model"`
	GoVersion  string     `json:"go_version"`
	LoadAvg    [3]float64 `json:"loadavg"`
}

func hostProvenance() provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(b))
		for i := 0; i < 3 && i < len(f); i++ {
			p.LoadAvg[i], _ = strconv.ParseFloat(f[i], 64) // unparsable reads as 0
		}
	}
	return p
}
