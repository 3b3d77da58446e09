package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The benchmark re-executes its own binary to host the system under test;
// under "go test" that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], "-role=") {
		os.Exit(childMain(strings.TrimPrefix(os.Args[1], "-role=")))
	}
	os.Exit(m.Run())
}

// smoke is a run short and small enough for the test suite: SF 0.002,
// a 0.3 s window, five traced ops.
func smoke(t *testing.T, wl *workload) runConfig {
	return runConfig{
		wl: wl, seed: 1, setups: 1, outDir: t.TempDir(),
		warmup: 50 * time.Millisecond, measure: 300 * time.Millisecond,
		sfScale: 0.002 / wl.sf, traced: true, tracedLimit: 5, tracedBudget: time.Second,
	}
}

// BENCHMARK.json and the code must name the same command, workloads and
// metrics: later changes are accepted or rejected on these names.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// Streams are a pure function of (workload, seed, connection), single-line,
// and an ad-hoc workload never repeats a statement on any connection.
func TestGeneratorDeterminism(t *testing.T) {
	head := func(w *workload, seed int64, conn int) []string {
		st := w.stream(seed, conn, 2)
		var out []string
		for i := 0; i < 100; i++ {
			out = append(out, st.next())
		}
		return out
	}
	for _, w := range workloads {
		if w.analyze {
			continue
		}
		a := head(w, 1, 0)
		if !reflect.DeepEqual(a, head(w, 1, 0)) {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(a, head(w, 2, 0)) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		if reflect.DeepEqual(a, head(w, 1, 1)) {
			t.Errorf("%s: connections 0 and 1 send the same stream", w.name)
		}
		for _, s := range a {
			if strings.ContainsAny(s, "\r\n") {
				t.Errorf("%s: statement spans lines: %q", w.name, s)
			}
		}
		if w.variants > 0 {
			// Connections share no statement, so the shared-work gate
			// has nothing to attach.
			mine := map[string]bool{}
			for _, s := range a {
				mine[s] = true
			}
			for _, s := range head(w, 1, 1) {
				if mine[s] {
					t.Errorf("%s: both connections send %q", w.name, s)
				}
			}
			continue
		}
		seen := map[string]bool{}
		for conn := 0; conn < 2; conn++ {
			st := w.stream(1, conn, 2)
			for i := 0; i < 4000; i++ {
				s := st.next()
				if seen[s] {
					t.Fatalf("%s: statement repeats: %q", w.name, s)
				}
				seen[s] = true
			}
		}
	}
}

// Every workload prints exactly the metrics BENCHMARK.json names, each with
// its unit, completes without a failed op, and leaves a well-formed trace.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel() // most of a run is waiting: for the window to pass, for a child to start
			cfg := smoke(t, wl)
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Ops == 0 {
				t.Fatalf("%d ops, %d failed: %v", res.Ops, res.Failed, res.Errors)
			}
			for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
				var line bytes.Buffer
				printContract(&line, res, traced)
				var got contractResult
				if err := json.Unmarshal(line.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Attempted < 1 || len(got.Metrics) != len(defs) {
					t.Errorf("trace=%v: correct=%v attempted=%d, %d metrics, want %d", traced, got.Correct, got.Attempted, len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s: printed %v (present %v), want unit %q", traced, d.Name, m, ok, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if res.EndToEnd[d.Name] <= 0 {
					t.Errorf("%s = %v, want above 0", d.Name, res.EndToEnd[d.Name])
				}
			}
			checkTrace(t, filepath.Join(cfg.outDir, "trace-"+wl.name+".json"))
			if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "tmp-*")); len(left) != 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

// checkTrace holds a written trace to the span-tree rules: one root per op,
// children inside their parents, self time never negative.
func checkTrace(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	roots := map[int]int{}
	childSum := make([]int64, len(tf.Spans))
	for i, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Op]++
			continue
		}
		p := tf.Spans[s.Parent]
		if s.Parent >= i || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] op %d is not inside its parent %s [%d,%d] op %d", i, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
		}
		childSum[s.Parent] += s.End - s.Start
	}
	for i, s := range tf.Spans {
		if childSum[i] > s.End-s.Start {
			t.Errorf("span %d %s: negative self time", i, s.Name)
		}
	}
	if len(roots) == 0 {
		t.Error("trace has no ops")
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("op %d has %d roots", op, n)
		}
	}
}

// A damaged reference must surface as failed ops on every kind of oracle:
// the pool's reference hashes, the ad-hoc sequential re-run, the analysis
// client's SVG digests.
func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range []string{"serve-wide", "serve-adhoc", "analyze-offline"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smoke(t, workloadByName(name))
			cfg.traced, cfg.corrupt, cfg.measure = false, true, 150*time.Millisecond
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Failed >= res.Attempted {
				t.Errorf("%d of %d ops failed against a reference damaged in every second entry, want some", res.Failed, res.Attempted)
			}
		})
	}
}
