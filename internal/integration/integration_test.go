// Package integration runs the full stack over the adapted TPC-H
// workload: every query is parsed, bound, compiled (partitioned and
// unpartitioned), optimized, executed (sequentially and on the dataflow
// scheduler), profiled, exported to dot, laid out, rendered, and mapped
// back to its trace. It is the end-to-end proof that the reproduction's
// pieces compose.
package integration

import (
	"strings"
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/engine"
	"stethoscope/internal/layout"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/trace"
)

var cat = func() *storage.Catalog {
	c := storage.NewCatalog()
	if err := tpch.Load(c, tpch.Config{SF: 0.002, Seed: 2024}); err != nil {
		panic(err)
	}
	return c
}()

func compile(t *testing.T, q tpch.Query, partitions int, optimize bool) *mal.Plan {
	t.Helper()
	stmt, err := sql.Parse(q.SQL)
	if err != nil {
		t.Fatalf("%s: parse: %v", q.ID, err)
	}
	tree, err := algebra.Bind(stmt, cat)
	if err != nil {
		t.Fatalf("%s: bind: %v", q.ID, err)
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: partitions})
	if err != nil {
		t.Fatalf("%s: compile: %v", q.ID, err)
	}
	if optimize {
		plan, _, err = optimizer.Default().Run(plan)
		if err != nil {
			t.Fatalf("%s: optimize: %v", q.ID, err)
		}
	}
	return plan
}

func run(t *testing.T, plan *mal.Plan, workers int) *engine.Result {
	t.Helper()
	res, err := engine.New(cat).Run(plan, engine.Options{Workers: workers})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	return res
}

func resultsEqual(t *testing.T, q string, a, b *engine.Result) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("%s: %d rows vs %d rows", q, a.Rows(), b.Rows())
	}
	if len(a.Cols) != len(b.Cols) {
		t.Fatalf("%s: %d cols vs %d cols", q, len(a.Cols), len(b.Cols))
	}
	for c := range a.Cols {
		for i := 0; i < a.Rows(); i++ {
			if !cellEqual(a.Cols[c], b.Cols[c], i) {
				t.Fatalf("%s: col %d row %d differs", q, c, i)
			}
		}
	}
}

func cellEqual(a, b *storage.BAT, i int) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case storage.Flt:
		d := a.FltAt(i) - b.FltAt(i)
		return d < 1e-6 && d > -1e-6
	case storage.Str:
		return a.StrAt(i) == b.StrAt(i)
	case storage.Bool:
		return a.BoolAt(i) == b.BoolAt(i)
	default:
		return a.IntAt(i) == b.IntAt(i)
	}
}

func TestAllQueriesCompileAndRun(t *testing.T) {
	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			plan := compile(t, q, 1, true)
			if err := plan.Validate(); err != nil {
				t.Fatalf("invalid plan: %v", err)
			}
			res := run(t, plan, 1)
			t.Logf("%s (%s): %d instructions, %d result rows", q.ID, q.Name, len(plan.Instrs), res.Rows())
		})
	}
}

func TestOptimizerPreservesResults(t *testing.T) {
	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			raw := run(t, compile(t, q, 4, false), 1)
			opt := run(t, compile(t, q, 4, true), 1)
			resultsEqual(t, q.ID, raw, opt)
		})
	}
}

func TestPartitioningPreservesResults(t *testing.T) {
	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			base := run(t, compile(t, q, 1, true), 1)
			part := run(t, compile(t, q, 8, true), 1)
			resultsEqual(t, q.ID, base, part)
		})
	}
}

func TestDataflowPreservesResults(t *testing.T) {
	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			plan := compile(t, q, 8, true)
			seq := run(t, plan, 1)
			par := run(t, plan, 8)
			resultsEqual(t, q.ID, seq, par)
		})
	}
}

// TestVisualizationPipelinePerQuery pushes every query through the whole
// Stethoscope side: profile -> trace -> dot -> session -> mapping ->
// coloring -> svg.
func TestVisualizationPipelinePerQuery(t *testing.T) {
	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			plan := compile(t, q, 4, true)
			sink := profiler.NewOwnedSliceSink(0)
			if _, err := engine.New(cat).Run(plan, engine.Options{Workers: 4, Profiler: profiler.New(sink)}); err != nil {
				t.Fatal(err)
			}
			st := trace.FromEvents(sink.Take())
			if st.Len() != 2*len(plan.Instrs) {
				t.Fatalf("trace %d events for %d instructions", st.Len(), len(plan.Instrs))
			}
			sess, err := core.NewSession(dot.Export(plan), st, core.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sess.Mapping.Complete() {
				t.Fatalf("mapping incomplete: unmatched=%v mismatches=%v",
					sess.Mapping.Unmatched, sess.Mapping.LabelMismatches)
			}
			sess.Replay.FastForward(st.Len())
			out, err := sess.RenderSVG()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, string(core.ColorGreen)) {
				t.Error("completed replay has no green nodes")
			}
			// Analyses run without error on every query's trace.
			_ = core.Utilize(st)
			_ = core.BirdsEye(st, 8)
			_ = core.TopCostly(st, 5)
			_, _ = core.Gradient(st.Events())
		})
	}
}

// TestPrunedPlansStillLayOut exercises the E11 pruning on the whole
// workload: pruned plans remain valid DAGs that lay out cleanly.
func TestPrunedPlansStillLayOut(t *testing.T) {
	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			plan := compile(t, q, 4, true)
			pruned, _ := mal.Prune(plan)
			if err := pruned.Validate(); err != nil {
				t.Fatalf("pruned plan invalid: %v", err)
			}
			g := dot.Export(pruned)
			if _, err := layout.Compute(g, layout.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			if len(pruned.Instrs) >= len(plan.Instrs) {
				t.Errorf("pruning removed nothing (%d -> %d)", len(plan.Instrs), len(pruned.Instrs))
			}
		})
	}
}
