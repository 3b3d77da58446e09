package integration

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"stethoscope"
	"stethoscope/internal/tpch"
)

// TestLoweringModesAgree: every statement of the lowering sweep (the
// tpch.SweepQueries) renders the same table whatever
// form the compiler lowers it in — sequential, static mitosis at 2, 7,
// 64 and 2000 partitions (more slices than most tables have rows),
// and — below the facade, as DB.Stream is the only caller that lowers
// to them — morsel fragments at 64 rows and Auto, and morsel fragments
// with partitioned sorts; the fan-outs on 4 workers.
//
// There is exactly one exception, stated here and nowhere else: a sum
// over a float column adds one partial per piece, so its additions
// re-associate with the fan-out geometry and the last bits may differ
// (PR 12 found it on Q6, Q14 and Q19 between partition counts; MonetDB's
// mitosis behaves the same). Statements with a sum are therefore
// compared cell by cell, cells that differ must both be numbers, and
// those must agree to a relative 1e-12. Everything else — keys, counts,
// min/max, integral sums, avg (which never fans out), row order — is
// byte-identical.
func TestLoweringModesAgree(t *testing.T) {
	ctx := context.Background()
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cat := loadCatalog(t, 0.005, 42)

	table := func(q string, parts, workers int) string {
		t.Helper()
		res, err := db.Exec(ctx, q, stethoscope.ExecPartitions(parts), stethoscope.ExecWorkers(workers))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var sb strings.Builder
		if err := res.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	static := func(parts int) func(q string) string {
		return func(q string) string { return table(q, parts, 4) }
	}
	morsel := func(parts, rows int) func(q string) string {
		return func(q string) string { return morselTable(t, cat, q, parts, rows, 4) }
	}
	modes := []struct {
		name string
		run  func(q string) string
	}{
		{"partitions=2", static(2)},
		{"partitions=7", static(7)},
		{"partitions=64", static(64)},
		{"partitions=2000", static(2000)},
		{"morsel=64", morsel(1, 64)},
		{"morsel=auto", morsel(1, stethoscope.Auto)},
		{"morsel=64,partitions=7", morsel(7, 64)},
	}

	for _, q := range tpch.SweepQueries() {
		want := table(q, 1, 1)
		for _, m := range modes {
			got := m.run(q)
			if got == want {
				continue
			}
			if !strings.Contains(q, "sum(") {
				t.Errorf("%s [%s]: table differs from the sequential run\n got: %q\nwant: %q", q, m.name, got, want)
				continue
			}
			if why := sameUpToFloatSums(got, want); why != "" {
				t.Errorf("%s [%s]: %s", q, m.name, why)
			}
		}
	}
}

// sameUpToFloatSums compares two tab-separated tables cell by cell:
// cells are equal as text, or both numbers within a relative 1e-12. It
// returns the first disagreement, or "".
func sameUpToFloatSums(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		return "row counts differ: " + strconv.Itoa(len(gl)-2) + " vs " + strconv.Itoa(len(wl)-2)
	}
	for i := range gl {
		gc, wc := strings.Split(gl[i], "\t"), strings.Split(wl[i], "\t")
		if len(gc) != len(wc) {
			return "row " + strconv.Itoa(i) + ": column counts differ"
		}
		for j := range gc {
			if gc[j] == wc[j] {
				continue
			}
			g, gerr := strconv.ParseFloat(gc[j], 64)
			w, werr := strconv.ParseFloat(wc[j], 64)
			if gerr != nil || werr != nil || math.Abs(g-w) > 1e-12*math.Max(math.Abs(g), math.Abs(w)) {
				return "row " + strconv.Itoa(i) + " column " + strconv.Itoa(j) + ": " + gc[j] + " vs " + wc[j]
			}
		}
	}
	return ""
}
