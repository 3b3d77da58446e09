package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: stethoscope
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPlanCacheHit/cold-8         	     100	   4562891 ns/op
BenchmarkPlanCacheHit/cached-8       	     100	    787722 ns/op	  12 B/op	       3 allocs/op
BenchmarkPlanCacheHit/cached-8       	     100	    801122 ns/op
some test log line
PASS
ok  	stethoscope	0.627s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "stethoscope" {
		t.Fatalf("headers = %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("records = %d, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[1]
	if b.Name != "BenchmarkPlanCacheHit/cached-8" || b.Runs != 100 ||
		b.NsPerOp != 787722 || b.BytesPerOp != 12 || b.AllocsPerOp != 3 {
		t.Fatalf("record = %+v", b)
	}
	// -count=3 repeats stay separate records.
	if doc.Benchmarks[2].NsPerOp != 801122 {
		t.Fatalf("repeat record = %+v", doc.Benchmarks[2])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	doc, err := Parse(strings.NewReader("BenchmarkBroken abc def\nBenchmarkShort 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("malformed lines produced %d records", len(doc.Benchmarks))
	}
}

func TestDeltaSummary(t *testing.T) {
	base := Document{Benchmarks: []Record{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkA", NsPerOp: 900}, // repeated run: best wins
		{Name: "BenchmarkGone", NsPerOp: 50},
	}}
	cur := Document{Benchmarks: []Record{
		{Name: "BenchmarkA", NsPerOp: 450},
		{Name: "BenchmarkNew", NsPerOp: 77},
	}}
	lines := DeltaSummary(base, cur)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "BenchmarkA") || !strings.Contains(joined, "-50.0%") {
		t.Errorf("missing improvement line:\n%s", joined)
	}
	if !strings.Contains(joined, "BenchmarkNew") || !strings.Contains(joined, "(new)") {
		t.Errorf("missing new-benchmark line:\n%s", joined)
	}
	if !strings.Contains(joined, "BenchmarkGone") || !strings.Contains(joined, "(removed)") {
		t.Errorf("missing removed-benchmark line:\n%s", joined)
	}
}

func TestParseOverrides(t *testing.T) {
	m, err := ParseOverrides(" BenchmarkA=15, BenchmarkB/x = 50 ")
	if err != nil {
		t.Fatal(err)
	}
	if m["BenchmarkA"] != 15 || m["BenchmarkB/x"] != 50 {
		t.Errorf("overrides = %v", m)
	}
	if m, err := ParseOverrides(""); err != nil || len(m) != 0 {
		t.Errorf("empty override spec: %v %v", m, err)
	}
	for _, bad := range []string{"BenchmarkA", "BenchmarkA=", "BenchmarkA=-3", "BenchmarkA=x"} {
		if _, err := ParseOverrides(bad); err == nil {
			t.Errorf("ParseOverrides(%q) succeeded", bad)
		}
	}
}

func TestThresholdForLongestPrefix(t *testing.T) {
	overrides := map[string]float64{
		"BenchmarkParallelJoin":      40,
		"BenchmarkParallelJoin/auto": 10,
	}
	cases := []struct {
		name string
		want float64
	}{
		{"BenchmarkParallelJoin/auto-8", 10},
		{"BenchmarkParallelJoin/sequential-8", 40},
		{"BenchmarkParallelJoin", 40},    // exact match
		{"BenchmarkParallelJoinX-8", 25}, // no separator: not a match
		{"BenchmarkParallelSort/auto-8", 25},
	}
	for _, c := range cases {
		if got := thresholdFor(c.name, 25, overrides); got != c.want {
			t.Errorf("thresholdFor(%q) = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestGateViolations(t *testing.T) {
	base := Document{Benchmarks: []Record{
		{Name: "BenchmarkStable-8", NsPerOp: 100},
		{Name: "BenchmarkRegressed-8", NsPerOp: 100},
		{Name: "BenchmarkRemoved-8", NsPerOp: 100},
		{Name: "BenchmarkNoisy/x-8", NsPerOp: 100},
	}}
	cur := Document{Benchmarks: []Record{
		{Name: "BenchmarkStable-8", NsPerOp: 110},    // +10%: under the default gate
		{Name: "BenchmarkRegressed-8", NsPerOp: 140}, // +40%: over
		{Name: "BenchmarkNew-8", NsPerOp: 500},       // new: never gated
		{Name: "BenchmarkNoisy/x-8", NsPerOp: 140},   // +40%: allowed by override
	}}
	got := GateViolations(base, cur, 25, 0, map[string]float64{"BenchmarkNoisy": 50})
	if len(got) != 1 || !strings.Contains(got[0], "BenchmarkRegressed-8") {
		t.Fatalf("violations = %v", got)
	}
	// Best-of-count gating: one fast repetition clears the gate even
	// when the other repetitions were slow (scheduler noise absorption).
	cur2 := Document{Benchmarks: []Record{
		{Name: "BenchmarkRegressed-8", NsPerOp: 300},
		{Name: "BenchmarkRegressed-8", NsPerOp: 105},
	}}
	if got := GateViolations(base, cur2, 25, 0, nil); len(got) != 0 {
		t.Fatalf("best-of gating failed: %v", got)
	}
	// A tighter override fires below the default threshold.
	got = GateViolations(base,
		Document{Benchmarks: []Record{{Name: "BenchmarkStable-8", NsPerOp: 120}}},
		25, 0, map[string]float64{"BenchmarkStable": 10})
	if len(got) != 1 {
		t.Fatalf("tight override did not fire: %v", got)
	}
	// Exactly-at-threshold passes: the gate is strictly greater-than.
	got = GateViolations(base,
		Document{Benchmarks: []Record{{Name: "BenchmarkStable-8", NsPerOp: 125}}}, 25, 0, nil)
	if len(got) != 0 {
		t.Fatalf("at-threshold regression flagged: %v", got)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	doc, err := Parse(strings.NewReader(
		"BenchmarkPeakRSS/stream-8    2    335374649 ns/op    21980632 peak-bytes\n" +
			"BenchmarkHistoryAppend-8    1000    1200 ns/op    833333 events/sec\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("records = %d, want 2", len(doc.Benchmarks))
	}
	if got := doc.Benchmarks[0].Custom["peak-bytes"]; got != 21980632 {
		t.Errorf("peak-bytes = %v", doc.Benchmarks[0].Custom)
	}
	if got := doc.Benchmarks[1].Custom["events/sec"]; got != 833333 {
		t.Errorf("events/sec = %v", doc.Benchmarks[1].Custom)
	}
}

func TestGateByteMetrics(t *testing.T) {
	base := Document{Benchmarks: []Record{
		{Name: "BenchmarkPeakRSS/stream-8", NsPerOp: 100, Custom: map[string]float64{"peak-bytes": 20e6}},
		{Name: "BenchmarkPeakRSS/static-8", NsPerOp: 100, Custom: map[string]float64{"peak-bytes": 50e6}},
		{Name: "BenchmarkHistoryAppend-8", NsPerOp: 100, Custom: map[string]float64{"events/sec": 1e6}},
	}}
	cur := Document{Benchmarks: []Record{
		// ns/op steady, peak-bytes +100%: a memory regression the time
		// gate alone would miss.
		{Name: "BenchmarkPeakRSS/stream-8", NsPerOp: 100, Custom: map[string]float64{"peak-bytes": 40e6}},
		{Name: "BenchmarkPeakRSS/static-8", NsPerOp: 100, Custom: map[string]float64{"peak-bytes": 55e6}},
		// Rate metrics are higher-is-better: a drop must not gate.
		{Name: "BenchmarkHistoryAppend-8", NsPerOp: 100, Custom: map[string]float64{"events/sec": 1e3}},
	}}
	got := GateViolations(base, cur, 25, 0, nil)
	if len(got) != 1 || !strings.Contains(got[0], "BenchmarkPeakRSS/stream-8") ||
		!strings.Contains(got[0], "peak-bytes") {
		t.Fatalf("violations = %v, want the stream peak-bytes regression only", got)
	}
	// Overrides apply to byte metrics through the same prefix match, and
	// best-of-count reduction picks the lowest byte measurement.
	cur2 := Document{Benchmarks: []Record{
		{Name: "BenchmarkPeakRSS/stream-8", NsPerOp: 100, Custom: map[string]float64{"peak-bytes": 60e6}},
		{Name: "BenchmarkPeakRSS/stream-8", NsPerOp: 100, Custom: map[string]float64{"peak-bytes": 21e6}},
	}}
	if got := GateViolations(base, cur2, 25, 0, nil); len(got) != 0 {
		t.Fatalf("best-of byte gating failed: %v", got)
	}
	if got := GateViolations(base, cur, 25, 0, map[string]float64{"BenchmarkPeakRSS": 150}); len(got) != 0 {
		t.Fatalf("byte-metric override ignored: %v", got)
	}
}

func TestGateNoiseFloor(t *testing.T) {
	base := Document{Benchmarks: []Record{
		{Name: "BenchmarkMicro-8", NsPerOp: 2000},
		{Name: "BenchmarkCliff-8", NsPerOp: 2000},
		{Name: "BenchmarkBig-8", NsPerOp: 1_000_000},
	}}
	cur := Document{Benchmarks: []Record{
		{Name: "BenchmarkMicro-8", NsPerOp: 4000},    // +100% but under the floor: jitter
		{Name: "BenchmarkCliff-8", NsPerOp: 500_000}, // blows past the floor: real cliff
		{Name: "BenchmarkBig-8", NsPerOp: 1_500_000}, // +50% above the floor: gated
	}}
	got := GateViolations(base, cur, 25, 100_000, nil)
	if len(got) != 2 {
		t.Fatalf("violations = %v, want cliff + big", got)
	}
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "BenchmarkCliff-8") || !strings.Contains(joined, "BenchmarkBig-8") {
		t.Fatalf("violations = %v", got)
	}
	// Floor disabled: the micro jitter is flagged too.
	if got := GateViolations(base, cur, 25, 0, nil); len(got) != 3 {
		t.Fatalf("floorless violations = %v", got)
	}
}
