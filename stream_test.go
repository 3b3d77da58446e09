// Tests of the streaming results API: DB.Stream yields rows before the
// run completes, totals match Exec, materializing plans still stream as
// one batch, and early Close releases the run cleanly.
package stethoscope_test

import (
	"context"
	"testing"

	"stethoscope"
)

// TestStreamYieldsBeforeCompletion is the streaming-progress check: the
// first rows must be consumable while the query is still executing.
// The auto-sized morsel splits the ~30k-row lineitem scan into at least
// two batches at any core count, and the iterator's unbuffered handshake
// means the engine cannot finish until the consumer drains them — so
// observing InFlight=1 after the first row proves rows arrived before
// full materialization.
func TestStreamYieldsBeforeCompletion(t *testing.T) {
	db := openTestDB(t)
	it, err := db.Stream(context.Background(), "select l_orderkey from lineitem",
		stethoscope.ExecWorkers(4))
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
	n := 1
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), "select l_orderkey from lineitem")
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

// TestStreamEarlyClose: Close mid-iteration cancels the run without
// error and without leaking the producer goroutine (the -race runs
// would flag one).
func TestStreamEarlyClose(t *testing.T) {
	db := openTestDB(t)
	it, err := db.Stream(context.Background(), "select l_orderkey from lineitem",
		stethoscope.ExecWorkers(4))
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
