package main

import (
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in does not hold its speed. Neighbours on
// the same host take memory bandwidth and cache for minutes at a time, and
// the same op of the same binary then costs up to 1.8 times the CPU time and
// the latency it cost a few minutes earlier (README.md has the
// measurements). No statistic over a ten-second window removes a slow phase
// that outlasts the window, so the harness measures the box while the
// workload runs: every calEvery one thread executes a fixed kernel — scan a
// column, format numbers into fresh strings, leave garbage behind, which is
// what the program under test does all day — and records the CPU time it
// took. Time-based end-to-end metrics are then expressed at the speed of a
// box that runs the kernel in calNominal, on the assumption that an op slows
// as the kernel does; the raw values are printed beside them.
//
// The assumption is rough. Fitting log(metric) against log(kernel time) over
// two sets of 12 runs per workload gave exponents between 0.4 and 1.2 for
// four workloads, different from one set to the next, and 1.0 to 1.7 for
// serve-wide. No single exponent is better supported than 1, which needs no
// constant, and with it every spread seen stayed under 16 %.

const (
	calEvery   = 50 * time.Millisecond
	calNominal = 600 * time.Microsecond // the kernel on the reference box in a quiet phase
)

var (
	calColumn = make([]float64, 512<<10) // 4 MiB: past L2, into what neighbours contend for
	calKeep   []string
)

func calKernel() {
	var s float64
	for _, v := range calColumn {
		s += v
	}
	rows := make([]string, 0, 1500)
	for i := 0; i < cap(rows); i++ {
		rows = append(rows, strconv.FormatFloat(float64(i)*1.37+s, 'g', -1, 64))
	}
	calKeep = rows
}

// threadCPU is the CPU time the calling thread has used, to the nanosecond
// (getrusage's per-thread figures move in 10 ms ticks). CPU time, not wall
// time: the kernel's thread competes with the load generator for a core,
// and time spent waiting for one says nothing about the box.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

type calSample struct {
	at  time.Time
	cpu time.Duration
}

// calibrator runs the kernel on a thread of its own until closed.
type calibrator struct {
	mu      sync.Mutex
	samples []calSample
	stop    chan struct{}
	done    chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread() // thread CPU time means one thread
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			t0 := threadCPU()
			calKernel()
			d := threadCPU() - t0
			c.mu.Lock()
			c.samples = append(c.samples, calSample{time.Now(), d})
			c.mu.Unlock()
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// boxSpeed is what the calibrator saw over one interval.
type boxSpeed struct {
	kernelMs float64 // median kernel CPU time
	scale    float64 // a time measured in the interval, times scale, is the time at nominal box speed
}

// speed summarises the interval from..to. With no sample in it (an interval
// shorter than calEvery) nothing is corrected.
func (c *calibrator) speed(from, to time.Time) boxSpeed {
	c.mu.Lock()
	defer c.mu.Unlock()
	var xs []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			xs = append(xs, ms(s.cpu))
		}
	}
	if len(xs) == 0 {
		return boxSpeed{kernelMs: ms(calNominal), scale: 1}
	}
	k := median(xs)
	return boxSpeed{kernelMs: k, scale: ms(calNominal) / k}
}
