package main

import (
	"context"
	"time"
)

// window is everything measured between the end of warm-up and the end of
// the run.
type window struct {
	seconds float64
	ops     []opSample
	cpu     time.Duration // the child's, over the window
	hwmKB   int64         // the child's VmHWM at the end
	box     boxSpeed      // what the calibrator saw meanwhile
}

func (w window) latencies() []float64 {
	out := make([]float64, len(w.ops))
	for i, o := range w.ops {
		out[i] = o.latMs
	}
	return out
}

// rawEndToEnd is the window as the clock saw it. setupS holds one entry per
// repetition of set-up.
func (w window) rawEndToEnd(setupS []float64) map[string]float64 {
	var bytes int64
	for _, o := range w.ops {
		bytes += int64(o.bytes)
	}
	lat := w.latencies()
	n := float64(len(w.ops))
	return map[string]float64{
		"setup_s":          median(setupS),
		"throughput_ops_s": n / w.seconds,
		"latency_p50_ms":   median(lat),
		"latency_p95_ms":   quantile(lat, 0.95),
		"payload_mb_per_s": float64(bytes) / 1e6 / w.seconds, // MB = 10^6 bytes, here and for memory
		"cpu_ms_per_op":    ms(w.cpu) / n,
		"peak_rss_mb":      float64(w.hwmKB) * 1024 / 1e6,
	}
}

// endToEnd is rawEndToEnd at nominal box speed: times are multiplied by the
// calibrator's scale and rates divided by it; memory is left alone. Set-up
// is scaled by what the calibrator saw while the set-ups ran.
func (w window) endToEnd(setupS []float64, setupBox boxSpeed) map[string]float64 {
	m := w.rawEndToEnd(setupS)
	m["setup_s"] *= setupBox.scale
	for _, k := range []string{"latency_p50_ms", "latency_p95_ms", "cpu_ms_per_op"} {
		m[k] *= w.box.scale
	}
	for _, k := range []string{"throughput_ops_s", "payload_mb_per_s"} {
		m[k] /= w.box.scale
	}
	return m
}

// watchCPU returns the child's CPU time between origin and end.
func watchCPU(ctx context.Context, pid int, origin, end time.Time) (time.Duration, error) {
	sleepUntil(ctx, origin)
	cpu0, err := procCPU(pid)
	if err != nil {
		return 0, err
	}
	sleepUntil(ctx, end)
	cpu1, err := procCPU(pid)
	return cpu1 - cpu0, err
}
