package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("c_total"); same != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(11)
	if got := g.Load(); got != 11 {
		t.Fatalf("SetMax = %d, want 11", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var reg *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(5)
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if reg.Counter("x") != nil || reg.Snapshot() != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("name")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("name")
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	m, ok := s.Get("lat_us")
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("snapshot missing histogram: %+v", s)
	}
	if m.Count != 6 || m.Sum != 5+10+11+99+100+5000 {
		t.Fatalf("count=%d sum=%d", m.Count, m.Sum)
	}
	want := []Bucket{{10, 2}, {100, 5}, {1000, 5}, {math.MaxInt64, 6}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", m.Buckets)
	}
	for i, b := range want {
		if m.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, m.Buckets[i], b)
		}
	}
}

// TestTallyMergesLikeObserve: values observed into tallies appear in a
// snapshot only once merged, and then exactly as if each had been
// observed into the histogram; a merged tally starts empty, and the
// tally of a nil histogram no-ops.
func TestTallyMergesLikeObserve(t *testing.T) {
	r := NewRegistry()
	direct, shared := r.Histogram("direct_us", nil), r.Histogram("shared_us", nil)
	a, b := shared.Tally(), shared.Tally()
	for i, v := range []int64{0, 3, 10, 11, 999, 1_000, 20_000_000} {
		direct.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	if s, _ := r.Snapshot().Get("shared_us"); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("unmerged tallies visible: count %d sum %d", s.Count, s.Sum)
	}
	a.Merge()
	b.Merge()
	a.Merge()
	d, _ := r.Snapshot().Get("direct_us")
	s, _ := r.Snapshot().Get("shared_us")
	if s.Count != d.Count || s.Sum != d.Sum || len(s.Buckets) != len(d.Buckets) {
		t.Fatalf("merged %+v, observed %+v", s, d)
	}
	for i := range d.Buckets {
		if s.Buckets[i] != d.Buckets[i] {
			t.Errorf("bucket %d: merged %+v, observed %+v", i, s.Buckets[i], d.Buckets[i])
		}
	}
	var none *Histogram
	n := none.Tally()
	n.Observe(5)
	n.Merge()
}

func TestSnapshotSortedAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a").Set(1)
	r.GaugeFunc("z_len", func() int64 { return 42 })
	s := r.Snapshot()
	var names []string
	for _, m := range s {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != "a,b_total,z_len" {
		t.Fatalf("snapshot order = %v", names)
	}
	if s.Value("z_len") != 42 {
		t.Fatalf("GaugeFunc value = %d", s.Value("z_len"))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("stetho_x_total").Add(3)
	r.Counter(`stetho_worker_total{worker="0"}`).Add(1)
	r.Counter(`stetho_worker_total{worker="1"}`).Add(2)
	r.Histogram("stetho_lat_us", []int64{100}).Observe(50)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE stetho_x_total counter\nstetho_x_total 3\n",
		"# TYPE stetho_worker_total counter\n",
		`stetho_worker_total{worker="0"} 1`,
		`stetho_worker_total{worker="1"} 2`,
		`stetho_lat_us_bucket{le="100"} 1`,
		`stetho_lat_us_bucket{le="+Inf"} 1`,
		"stetho_lat_us_sum 50",
		"stetho_lat_us_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, not per label variant.
	if strings.Count(out, "# TYPE stetho_worker_total") != 1 {
		t.Fatalf("label variants must share one TYPE line:\n%s", out)
	}
}

func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_us", nil)
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.SetMax(int64(w*1000 + i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	s := r.Snapshot()
	m, _ := s.Get("h_us")
	if m.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", m.Count)
	}
	if g.Load() != 7999 {
		t.Fatalf("gauge high-water = %d, want 7999", g.Load())
	}
}
