// Facade-level tests of the morsel-driven lowering: results are
// byte-identical to sequential execution across query shapes, morsel
// sizes, and worker counts. Exec never lowers that way — DB.Stream is
// its only caller, always auto-sized — so the pinned sizes run below the
// facade.
package stethoscope_test

import (
	"strings"
	"testing"

	"stethoscope"
	"stethoscope/internal/adaptive"
	"stethoscope/internal/engine"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/planner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

// morselSweepQueries mirrors the persisted-dataset equality sweep
// (persist_test.go) plus shapes the morsel lowering treats specially:
// duplicate-key group-bys (partial-aggregate merge), empty results
// (zero-row morsel placeholders), and a table smaller than one morsel.
var morselSweepQueries = []string{
	scalingQuery,
	scalingJoinQuery,
	scalingSortQuery,
	"select count(*) as n from lineitem, orders where l_orderkey = o_orderkey",
	"select distinct l_shipmode from lineitem order by l_shipmode",
	"select n_name, r_name from nation, region where n_regionkey = r_regionkey order by n_name",
	"select l_shipmode, count(*) as n from lineitem group by l_shipmode order by l_shipmode",
	"select count(*) as n, min(l_quantity) as mn, max(l_quantity) as mx from lineitem where l_quantity < 0",
	"select n_name from nation where n_regionkey = 1 order by n_name",
}

// TestMorselMatchesSequentialByteForByte: every query shape, rendered
// through WriteTable's format, must be byte-identical between the
// sequential lowering and the morsel lowering at 1/4/8 workers —
// including a 64-row morsel that forces hundreds of cursor claims per
// scan, and the auto size DB.Stream runs with.
func TestMorselMatchesSequentialByteForByte(t *testing.T) {
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.005, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	pipeline := optimizer.Default()
	pl := planner.Planner{Cat: cat, Pipeline: pipeline, PassSpec: pipeline.Spec()}
	eng := engine.New(cat)
	for _, q := range morselSweepQueries {
		want := tableString(t, db, q, stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
		c, err := pl.Compile(q, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		auto, _ := adaptive.MorselRowsFor(c.Rows, adaptive.Procs())
		for _, workers := range []int{1, 4, 8} {
			for _, morsel := range []int{64, auto} {
				res, err := eng.Run(c.Plan, engine.Options{Workers: workers, MorselRows: morsel})
				if err != nil {
					t.Fatalf("%s (workers=%d morsel=%d): %v", q, workers, morsel, err)
				}
				var sb strings.Builder
				if _, err := res.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				if got := sb.String(); got != want {
					t.Errorf("%s (workers=%d morsel=%d):\nmorsel:\n%s\nsequential:\n%s",
						q, workers, morsel, got, want)
				}
			}
		}
	}
}
