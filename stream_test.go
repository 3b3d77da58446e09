// Tests of the streaming results API: DB.Stream yields rows before the
// run completes, its text equals Exec's, materializing plans still
// stream as one batch, and early Close releases the run cleanly.
package stethoscope_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"stethoscope"
)

// streamQuery is a partitioned scan whose result columns are packs of
// the slices, so Stream hands its rows over slice by slice.
const streamQuery = "select l_orderkey from lineitem where l_quantity > 10"

// TestStreamYieldsBeforeCompletion is the streaming-progress check: the
// first rows must be consumable while the query is still executing. The
// four slices of the lineitem scan stream one batch each, and the
// iterator's unbuffered handshake means the engine cannot finish until
// the consumer drains them — so seeing the run in flight with
// instructions still to run after the first row proves rows arrived
// before full materialization.
func TestStreamYieldsBeforeCompletion(t *testing.T) {
	db := openTestDB(t)
	it, err := db.Stream(context.Background(), streamQuery,
		stethoscope.ExecPartitions(4), stethoscope.ExecWorkers(4))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatalf("no first row: %v", it.Err())
	}
	if got := db.Stats().InFlight; got != 1 {
		t.Errorf("InFlight = %d after first row, want 1 (run still executing)", got)
	}
	if p := db.Progress(); len(p) != 1 || p[0].InstrDone >= p[0].InstrTotal {
		t.Errorf("progress after the first row = %+v, want the run with instructions still to run", p)
	}
	n := 1
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	if n != res.RowCount() {
		t.Errorf("streamed %d rows, Exec materialized %d", n, res.RowCount())
	}
}

// TestStreamScanAndColumns: typed Scan destinations and the up-front
// column names.
func TestStreamScanAndColumns(t *testing.T) {
	db := openTestDB(t)
	it, err := db.Stream(context.Background(),
		"select l_orderkey, l_tax, l_shipmode from lineitem where l_partkey=1")
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer it.Close()
	want := []string{"l_orderkey", "l_tax", "l_shipmode"}
	cols := it.Columns()
	if len(cols) != len(want) {
		t.Fatalf("Columns = %v, want %v", cols, want)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("Columns = %v, want %v", cols, want)
		}
	}
	n := 0
	for it.Next() {
		var key int64
		var tax float64
		var mode string
		if err := it.Scan(&key, &tax, &mode); err != nil {
			t.Fatal(err)
		}
		if key < 1 || mode == "" {
			t.Fatalf("row %d: key=%d mode=%q", n, key, mode)
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Errorf("streamed %d rows, want 32 (SF=0.005, seed=42)", n)
	}
}

// TestStreamMaterializingPlan: plans that cannot stream incrementally
// (sorts, merged aggregates) still serve the iterator — as one batch —
// through the range-over-func form.
func TestStreamMaterializingPlan(t *testing.T) {
	db := openTestDB(t)
	it, err := db.Stream(context.Background(),
		"select l_shipmode, count(*) as n from lineitem group by l_shipmode order by l_shipmode")
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	var rows [][]any
	for row := range it.All() {
		rows = append(rows, row)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("streamed %d group rows, want 7", len(rows))
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].(int64)
	}
	var want int64
	it2, err := db.Stream(context.Background(), "select count(*) as n from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	if !it2.Next() {
		t.Fatalf("count stream empty: %v", it2.Err())
	}
	if err := it2.Scan(&want); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Errorf("group counts sum to %d, count(*) says %d", total, want)
	}
}

// TestStreamEarlyClose: Close mid-iteration — after the first slice,
// with later ones still to run — cancels the run without error and
// without leaking the producer goroutine (the -race runs would flag
// one).
func TestStreamEarlyClose(t *testing.T) {
	db := openTestDB(t)
	it, err := db.Stream(context.Background(), streamQuery,
		stethoscope.ExecPartitions(4), stethoscope.ExecWorkers(4))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if !it.Next() {
		t.Fatalf("no first row: %v", it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after partial read: %v", err)
	}
	if it.Next() {
		t.Error("Next succeeded after Close")
	}
	// The DB still serves queries normally afterwards.
	if _, err := db.Exec(context.Background(), figure1Query); err != nil {
		t.Fatalf("Exec after early stream close: %v", err)
	}
}

// streamSweepQueries are the scan, join-probe and sort shapes of the
// persisted-dataset sweep (persist_test.go) plus streamed scans and
// join probes, duplicate-key group-bys, a float sum, empty results and
// tables smaller than one slice.
var streamSweepQueries = []string{
	scalingQuery,
	scalingJoinQuery,
	scalingSortQuery,
	streamQuery,
	"select l_orderkey, l_tax, l_shipdate, l_shipmode from lineitem, orders where l_orderkey = o_orderkey and o_totalprice > 100000",
	"select count(*) as n from lineitem, orders where l_orderkey = o_orderkey",
	"select distinct l_shipmode from lineitem order by l_shipmode",
	"select n_name, r_name from nation, region where n_regionkey = r_regionkey order by n_name",
	"select l_shipmode, count(*) as n from lineitem group by l_shipmode order by l_shipmode",
	"select l_returnflag, sum(l_extendedprice) as s from lineitem group by l_returnflag order by l_returnflag",
	"select count(*) as n, min(l_quantity) as mn, max(l_quantity) as mx from lineitem where l_quantity < 0",
	"select l_orderkey from lineitem where l_quantity < 0",
	"select n_name from nation where n_regionkey = 1",
}

// TestStreamMatchesExecByteForByte: Stream runs Exec's plan, so at every
// partition and worker count its rows, rendered as WriteTable renders
// Exec's, are the same bytes — float sums included, streamed slice by
// slice or as one batch.
func TestStreamMatchesExecByteForByte(t *testing.T) {
	db := openTestDB(t)
	ctx := context.Background()
	for _, q := range streamSweepQueries {
		for _, parts := range []int{1, 4, 7} {
			for _, workers := range []int{1, 4, 8} {
				opts := []stethoscope.ExecOption{stethoscope.ExecPartitions(parts), stethoscope.ExecWorkers(workers)}
				want := tableString(t, db, q, opts...)
				got, err := streamTable(ctx, db, q, opts...)
				if err != nil {
					t.Fatalf("%s (partitions=%d workers=%d): %v", q, parts, workers, err)
				}
				if got != want {
					t.Errorf("%s (partitions=%d workers=%d):\nStream:\n%s\nExec:\n%s", q, parts, workers, got, want)
				}
			}
		}
	}
}

// streamTable drains Stream into the tab-separated text WriteTable
// produces.
func streamTable(ctx context.Context, db *stethoscope.DB, q string, opts ...stethoscope.ExecOption) (string, error) {
	it, err := db.Stream(ctx, q, opts...)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(it.Columns(), "\t") + "\n")
	for row := range it.All() {
		for c, v := range row {
			if c > 0 {
				sb.WriteByte('\t')
			}
			if f, ok := v.(float64); ok {
				sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
			} else {
				fmt.Fprint(&sb, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String(), it.Err()
}
