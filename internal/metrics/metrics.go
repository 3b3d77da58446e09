// Package metrics is the engine-wide observability substrate: named,
// typed, always-on metrics with an allocation-free hot path. The paper
// observes query execution through per-run traces; this package is the
// complementary whole-process view — counters, gauges, and fixed-bucket
// latency histograms that the scheduler, the plan cache, the stores,
// and the server all feed while serving, cheap
// enough to leave on in production.
//
// Concurrency contract: every mutation (Counter.Inc/Add, Gauge.Set/Add/
// SetMax, Histogram.Observe) is a handful of atomic operations
// on pre-registered cells — no locks, no allocation, no map lookups. A
// writer hot enough that even those contend (the engine's per-instruction
// durations) counts into a private Tally instead and merges it into the
// histogram once, so a snapshot sees its values only after the merge.
// The registry's mutex guards only registration and snapshotting, which
// are off the hot path. Snapshots are taken metric-by-metric with atomic
// loads: a snapshot is internally consistent per metric (a histogram's
// buckets are read in one sweep and its count recomputed from them, so
// bucket sums never exceed the reported count) but not across metrics —
// two counters incremented together may differ by in-flight updates.
// That is the standard Prometheus exposition contract.
//
// Nil-safety: all mutating and reading methods are no-ops (or zero) on
// nil receivers, so components can be instrumented unconditionally and
// wired to a registry only where one exists — an un-instrumented
// plancache or Batcher pays a nil check per update and nothing else.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error; they are applied
// as-is, keeping Add branch-free).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, with a high-water helper.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n is larger — the high-water-mark
// update (deque depth, in-flight peaks). Lock-free CAS loop.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBucketsUs is the fixed bucket layout the engine's
// latency histograms use: microsecond upper bounds in a roughly
// logarithmic ladder from 10µs to 10s. Fixed buckets keep Observe
// allocation-free and snapshots mergeable across processes.
var DefaultLatencyBucketsUs = []int64{
	10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative in
// snapshots (Prometheus convention); Observe is one binary search plus
// three atomic adds.
type Histogram struct {
	bounds []int64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
}

// bucket is the index of the first bound >= v, len(bounds) for +Inf.
func (h *Histogram) bucket(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Tally is one writer's private share of a histogram: plain counts, so
// Observe makes no atomic add and writes no cache line that another
// writer of the histogram writes. Merge adds the share into the
// histogram, which a snapshot sees only from then on. Not safe for
// concurrent use; the zero Tally, like a nil histogram's, no-ops.
type Tally struct {
	h      *Histogram
	counts []int64
	sum    int64
}

// Tally returns an empty share of h.
func (h *Histogram) Tally() Tally {
	if h == nil {
		return Tally{}
	}
	return Tally{h: h, counts: make([]int64, len(h.counts))}
}

// Observe records one value in the share.
func (t *Tally) Observe(v int64) {
	if t.h == nil {
		return
	}
	t.counts[t.h.bucket(v)]++
	t.sum += v
}

// Merge adds the share into its histogram and empties it.
func (t *Tally) Merge() {
	if t.h == nil {
		return
	}
	for i, n := range t.counts {
		if n != 0 {
			t.h.counts[i].Add(n)
			t.counts[i] = 0
		}
	}
	t.h.sum.Add(t.sum)
	t.sum = 0
}

// snapshotInto appends the histogram's cumulative buckets.
func (h *Histogram) snapshot() (buckets []Bucket, count, sum int64) {
	buckets = make([]Bucket, 0, len(h.bounds)+1)
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		upper := int64(math.MaxInt64)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		buckets = append(buckets, Bucket{Upper: upper, Count: cum})
	}
	return buckets, cum, h.sum.Load()
}

// Kind tags a snapshot sample.
type Kind int

// Sample kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Bucket is one cumulative histogram bucket; Upper == math.MaxInt64 is
// the +Inf bucket.
type Bucket struct {
	Upper int64
	Count int64
}

// Sample is one metric's point-in-time value.
type Sample struct {
	// Name is the registered name, which may carry a fixed label set in
	// Prometheus syntax, e.g. `stetho_engine_worker_instructions_total{worker="3"}`.
	Name string
	Kind Kind
	// Value holds counters and gauges.
	Value int64
	// Count, Sum, and Buckets hold histograms.
	Count   int64
	Sum     int64
	Buckets []Bucket
}

// Snapshot is a point-in-time view of a registry, sorted by name.
type Snapshot []Sample

// Get returns the named sample.
func (s Snapshot) Get(name string) (Sample, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return Sample{}, false
}

// Value returns the named counter/gauge value, 0 when absent.
func (s Snapshot) Value(name string) int64 {
	m, _ := s.Get(name)
	return m.Value
}

// metric is a registered entry.
type metric struct {
	kind Kind
	c    *Counter
	g    *Gauge
	gf   func() int64
	h    *Histogram
}

// Registry is a named set of metrics. Registration (Counter, Gauge,
// Histogram, GaugeFunc) is get-or-create and idempotent per name;
// re-registering a name as a different kind panics, naming the clash —
// metric names are program constants, so a clash is a programming
// error, not input. All registration and snapshot methods are safe for
// concurrent use; the returned cells are the lock-free hot-path
// handles.
type Registry struct {
	mu sync.Mutex
	m  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]*metric{}}
}

// get returns the named entry, creating it on first use, after running
// fill on it under the registry lock — Snapshot reads an entry's cell
// pointers under the same lock, so registration never races a reader.
func (r *Registry) get(name string, kind Kind, fill func(*metric)) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[name]
	if !ok {
		e = &metric{kind: kind}
		r.m[name] = e
	} else if e.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, e.kind, kind))
	}
	fill(e)
	return e
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (whose methods no-op).
func (r *Registry) Counter(name string) *Counter {
	e := r.get(name, KindCounter, func(e *metric) {
		if e.c == nil {
			e.c = &Counter{}
		}
	})
	if e == nil {
		return nil
	}
	return e.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.get(name, KindGauge, func(e *metric) {
		if e.g == nil {
			e.g = &Gauge{}
		}
	})
	if e == nil {
		return nil
	}
	return e.g
}

// GaugeFunc registers a gauge sampled by calling fn at snapshot time —
// for values another component already tracks (cache occupancy,
// in-flight runs) that would be redundant to mirror on the hot path.
// Later registrations under the same name replace the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.get(name, KindGauge, func(e *metric) { e.gf = fn })
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given upper bounds on first use (nil bounds select
// DefaultLatencyBucketsUs). Bounds are fixed at creation; subsequent
// calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	e := r.get(name, KindHistogram, func(e *metric) {
		if e.h == nil {
			if bounds == nil {
				bounds = DefaultLatencyBucketsUs
			}
			e.h = newHistogram(bounds)
		}
	})
	if e == nil {
		return nil
	}
	return e.h
}

// Snapshot returns every registered metric's current value, sorted by
// name. See the package comment for the consistency contract.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	entries := make([]metric, 0, len(r.m)) // copies: cell pointers are read under the lock
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		entries = append(entries, *r.m[n])
	}
	r.mu.Unlock()

	out := make(Snapshot, 0, len(names))
	for i, n := range names {
		e := entries[i]
		s := Sample{Name: n, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = e.c.Load()
		case KindGauge:
			if e.gf != nil {
				s.Value = e.gf()
			} else {
				s.Value = e.g.Load()
			}
		case KindHistogram:
			s.Buckets, s.Count, s.Sum = e.h.snapshot()
		}
		out = append(out, s)
	}
	return out
}

// baseName strips a fixed label set off a registered name:
// `x_total{worker="3"}` -> `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labeledName splits a registered name into base and the label braces
// (including them), for exposition lines that append suffixes before
// the labels (histogram _bucket lines).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (text/plain; version 0.0.4): one # TYPE line per metric family
// (label variants of one base name share a family), histogram
// _bucket/_sum/_count expansion with le labels, +Inf spelled out.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var lastFamily string
	for _, s := range snap {
		family := baseName(s.Name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, s.Kind); err != nil {
				return err
			}
			lastFamily = family
		}
		switch s.Kind {
		case KindCounter, KindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.Name, s.Value); err != nil {
				return err
			}
		case KindHistogram:
			base, labels := splitLabels(s.Name)
			for _, b := range s.Buckets {
				le := "+Inf"
				if b.Upper != math.MaxInt64 {
					le = fmt.Sprintf("%d", b.Upper)
				}
				lbl := fmt.Sprintf(`{le="%s"}`, le)
				if labels != "" {
					lbl = labels[:len(labels)-1] + fmt.Sprintf(`,le="%s"}`, le)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, lbl, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, labels, s.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
