package stethoscope_test

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"stethoscope"
)

// TestTPCHNightlyLargeScale is the nightly workflow's large-data leg:
// the PR gate runs TPC-H at SF 0.05, the scheduled job persists an SF
// 0.2 dataset with tpchgen -persist, sets STETHO_TPCH_DIR (see
// .github/workflows/nightly.yml), and re-runs the exact-shape
// scan/join/sort pipelines against it — so the sweep also exercises the
// durable-storage read path (lazy segment-at-a-time scans) at scale.
// STETHO_TPCH_SF instead generates in memory, as before. With neither
// set the test skips, so it costs PR CI nothing.
func TestTPCHNightlyLargeScale(t *testing.T) {
	dirEnv := os.Getenv("STETHO_TPCH_DIR")
	sfEnv := os.Getenv("STETHO_TPCH_SF")
	if dirEnv == "" && sfEnv == "" {
		t.Skip("set STETHO_TPCH_DIR (a tpchgen -persist dataset) or STETHO_TPCH_SF (e.g. 0.2) to run the large-scale TPC-H sweep")
	}
	var (
		db  *stethoscope.DB
		sf  float64
		err error
	)
	if dirEnv != "" {
		db, err = stethoscope.OpenPath(dirEnv,
			stethoscope.WithPartitions(stethoscope.Auto),
			stethoscope.WithWorkers(stethoscope.Auto))
		if err != nil {
			t.Fatalf("OpenPath(%s): %v", dirEnv, err)
		}
		sf, _ = strconv.ParseFloat(db.DataMeta()["sf"], 64)
	} else {
		sf, err = strconv.ParseFloat(sfEnv, 64)
		if err != nil || sf <= 0 {
			t.Fatalf("bad STETHO_TPCH_SF %q: %v", sfEnv, err)
		}
		db, err = stethoscope.Open(
			stethoscope.WithScaleFactor(sf), stethoscope.WithSeed(42),
			stethoscope.WithPartitions(stethoscope.Auto),
			stethoscope.WithWorkers(stethoscope.Auto))
		if err != nil {
			t.Fatalf("Open(SF=%g): %v", sf, err)
		}
	}
	defer db.Close()
	queries := []string{
		scalingQuery,
		scalingJoinQuery,
		scalingSortQuery,
		"select count(*) as n from lineitem, orders where l_orderkey = o_orderkey",
		"select distinct l_shipmode from lineitem order by l_shipmode",
		"select l_orderkey, l_extendedprice from lineitem order by l_extendedprice desc, l_orderkey limit 1000",
	}
	ctx := context.Background()
	for _, q := range queries {
		seq, err := db.Exec(ctx, q, stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
		if err != nil {
			t.Fatalf("Exec(seq, %q): %v", q, err)
		}
		auto, err := db.Exec(ctx, q)
		if err != nil {
			t.Fatalf("Exec(auto, %q): %v", q, err)
		}
		var seqBuf, autoBuf strings.Builder
		if err := seq.WriteTable(&seqBuf); err != nil {
			t.Fatal(err)
		}
		if err := auto.WriteTable(&autoBuf); err != nil {
			t.Fatal(err)
		}
		if seqBuf.String() != autoBuf.String() {
			t.Errorf("SF=%g %q: auto result differs from sequential (partitions=%d workers=%d, %s)",
				sf, q, auto.Stats.Partitions, auto.Stats.Workers, auto.Stats.TuneReason)
		}
		t.Logf("SF=%g %q: rows=%d partitions=%d workers=%d seq=%v auto=%v",
			sf, q, auto.RowCount(), auto.Stats.Partitions, auto.Stats.Workers,
			seq.Stats.Elapsed, auto.Stats.Elapsed)
	}
}
