package stethoscope_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"stethoscope"
)

// The classic flow: open an in-memory TPC-H database, execute one
// statement, and read the result and its execution statistics.
func ExampleOpen() {
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005),
		stethoscope.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	res, err := db.Exec(context.Background(),
		"select l_tax from lineitem where l_partkey=1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Columns(), res.RowCount() > 0, res.Stats.Instructions > 0)
	// Output: [l_tax] true true
}

// Streaming hands out result rows while the engine is still running:
// Stream runs the plan Exec would, and a result packed from four
// partitions reaches the RowIter one partition at a time, the first
// before the run completes, with backpressure bounding the batches in
// flight.
func ExampleDB_Stream() {
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005),
		stethoscope.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	it, err := db.Stream(context.Background(),
		"select l_orderkey, l_extendedprice from lineitem where l_quantity > 10",
		stethoscope.ExecPartitions(4))
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()

	rows := 0
	for it.Next() {
		var key int64
		var price float64
		if err := it.Scan(&key, &price); err != nil {
			log.Fatal(err)
		}
		rows++
	}
	fmt.Println(it.Err() == nil, rows > 0)
	// Output: true true
}

// A generated dataset can be persisted once as a durable columnar
// snapshot and reopened from disk without regeneration: OpenPath reads
// only the manifest, and columns materialize on first scan.
func ExampleDB_Persist() {
	dir, err := os.MkdirTemp("", "stetho-dataset")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005),
		stethoscope.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Persist(dir); err != nil {
		log.Fatal(err)
	}
	db.Close()

	db2, err := stethoscope.OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()

	res, err := db2.Exec(context.Background(),
		"select count(*) as n from lineitem")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(db2.DataMeta()["source"], res.RowCount())
	// Output: tpchgen 1
}

// Progress exposes the engine's in-flight runs while they execute:
// one entry per running query with its instruction counts and a
// completion fraction. An idle DB reports none.
func ExampleDB_Progress() {
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005),
		stethoscope.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for _, p := range db.Progress() {
		fmt.Printf("run %d: %.0f%% of %s\n", p.ID, p.Fraction()*100, p.Label)
	}
	fmt.Println("in flight:", len(db.Progress()))
	// Output: in flight: 0
}

// WithHistory gives the DB a durable memory: every execution is
// recorded into an append-only trace store that survives restarts,
// listable and replayable afterwards.
func ExampleDB_History() {
	dir, err := os.MkdirTemp("", "stetho-history")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005),
		stethoscope.WithSeed(42),
		stethoscope.WithHistory(dir))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	res, err := db.Exec(context.Background(),
		"select l_tax from lineitem where l_partkey=1")
	if err != nil {
		log.Fatal(err)
	}

	h := db.History()
	for _, r := range h.TopN(1) {
		fmt.Println(r.ID == res.Stats.RunID, r.SQL, r.OK())
	}
	// Output: true select l_tax from lineitem where l_partkey=1 true
}
