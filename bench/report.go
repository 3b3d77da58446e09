package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// metricValue is how every metric is printed: a number as measured, and its
// unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func values(defs []metricDef, got map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.Name] = metricValue{got[d.Name], d.Unit}
	}
	return out
}

// contractResult is the one-line object BENCHMARK.json's command ends with.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printContract writes the result line. A run with a failed op still reports
// (correct: false); the exit code is 0 either way, since the run itself
// worked.
func printContract(w io.Writer, res *runResult, traced bool) int {
	out := contractResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed}
	if traced {
		out.Metrics = values(perLayer, res.PerLayer)
	} else {
		out.Metrics = values(endToEnd, res.EndToEnd)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}

// printHuman writes one workload's table.
func printHuman(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n== %s: %d ops, %d attempted, %d failed (failed_ratio %.4g)\n",
		res.Workload, res.Ops, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   failure: %s\n", e)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t(raw %.6g; %s is better, bound %.0f%%)\n",
			d.Name, res.EndToEnd[d.Name], d.Unit, res.Raw[d.Name], d.Better, d.Bound*100)
	}
	if res.PerLayer != nil {
		fmt.Fprintf(tw, "  --\t\t\t\n")
		for _, d := range perLayer {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
	}
	tw.Flush()
}

// report is the JSON summary of a full run: both passes of every workload.
// bench/trajectory holds one per pull request.
type report struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	WarmupS   float64          `json:"warmup_s"`
	MeasureS  float64          `json:"measure_s"`
	Setups    int              `json:"setups"`
	Workloads []workloadReport `json:"workloads"`
	// Claim stays null: this harness measures, it claims no gain.
	Claim *string `json:"claim"`
}

type workloadReport struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	Ops         int                    `json:"ops"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedRatio float64                `json:"failed_ratio"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	Raw         map[string]metricValue `json:"end_to_end_raw"` // as the clock saw them, before scaling to nominal box speed
	PerLayer    map[string]metricValue `json:"per_layer"`
}

func newReport(cfg runConfig) *report {
	return &report{Env: readEnvironment(), Seed: cfg.seed, WarmupS: cfg.warmup.Seconds(), MeasureS: cfg.measure.Seconds(), Setups: cfg.setups}
}

func (r *report) add(res *runResult) {
	r.Workloads = append(r.Workloads, workloadReport{
		Name: res.Workload, Why: workloadByName(res.Workload).why,
		Ops: res.Ops, Attempted: res.Attempted, Failed: res.Failed,
		FailedRatio: ratio(float64(res.Failed), float64(res.Attempted)),
		EndToEnd:    values(endToEnd, res.EndToEnd), Raw: values(endToEnd, res.Raw), PerLayer: values(perLayer, res.PerLayer),
	})
}

func (r *report) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4) gives
// (the exclusive method), which is how the benchmark's driver measures
// spread. xs needs two values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runRepeat runs n complete untraced sets back to back and prints, per
// workload and end-to-end metric, the median, the quartiles, their distance
// as a share of the median, and the largest amount one set is worse than
// another — next to the bound. It fails when any pair of sets differs by
// more than the bound: a bound the harness cannot repeat within on this box
// is not a bound.
func runRepeat(ctx context.Context, cfg runConfig, n int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs at least 2 sets")
		return 2
	}
	got := map[string][]float64{} // workload/metric -> one value per set
	for set := 0; set < n; set++ {
		for _, wl := range workloads {
			cfg.wl = wl
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d: %s: %v\n", set+1, wl.name, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s: %d ops, %d failed\n", set+1, n, wl.name, res.Ops, res.Failed)
			if res.Failed > 0 {
				return 1
			}
			for _, d := range endToEnd {
				k := wl.name + "/" + d.Name
				got[k] = append(got[k], res.EndToEnd[d.Name])
			}
		}
	}
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tworst pair\tbound\t")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := got[wl.name+"/"+d.Name]
			q1, q2, q3 := quartiles(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			worst := hi/lo - 1 // the worse of the two is hi when lower is better
			if d.Better == "higher" {
				worst = 1 - lo/hi
			}
			verdict := ""
			if worst > d.Bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%.1f%%\t%.1f%%\t%.0f%%%s\t\n",
				wl.name, d.Name, d.Unit, q2, q1, q3, 100*ratio(q3-q1, q2), 100*worst, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}
