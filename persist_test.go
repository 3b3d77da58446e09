package stethoscope_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stethoscope"
)

// persistedPair generates a DB at the given SF/seed, persists it, and
// reopens the persisted copy, so tests can compare the two sides.
func persistedPair(t *testing.T, sf float64, seed uint64, opts ...stethoscope.Option) (gen, per *stethoscope.DB, dir string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "ds")
	gen, err := stethoscope.Open(append([]stethoscope.Option{
		stethoscope.WithScaleFactor(sf), stethoscope.WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { gen.Close() })
	if err := gen.Persist(dir); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	per, err = stethoscope.OpenPath(dir, opts...)
	if err != nil {
		t.Fatalf("OpenPath: %v", err)
	}
	t.Cleanup(func() { per.Close() })
	return gen, per, dir
}

func tableString(t *testing.T, db *stethoscope.DB, q string, opts ...stethoscope.ExecOption) string {
	t.Helper()
	res, err := db.Exec(context.Background(), q, opts...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	var buf strings.Builder
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestOpenPathMatchesOpenByteForByte is the durability contract: a
// persisted dataset reopened with OpenPath must answer every query
// byte-identically to the generated database it snapshots — across the
// scan, join-probe, and sort pipeline shapes, and under sequential as
// well as parallel execution of the persisted side.
func TestOpenPathMatchesOpenByteForByte(t *testing.T) {
	gen, per, _ := persistedPair(t, 0.005, 7)
	queries := []string{
		scalingQuery,
		scalingJoinQuery,
		scalingSortQuery,
		"select count(*) as n from lineitem, orders where l_orderkey = o_orderkey",
		"select distinct l_shipmode from lineitem order by l_shipmode",
		"select n_name, r_name from nation, region where n_regionkey = r_regionkey order by n_name",
	}
	for _, q := range queries {
		want := tableString(t, gen, q, stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
		seq := tableString(t, per, q, stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
		par := tableString(t, per, q, stethoscope.ExecPartitions(4), stethoscope.ExecWorkers(4))
		if seq != want {
			t.Errorf("%q: persisted sequential result differs from generated", q)
		}
		if par != want {
			t.Errorf("%q: persisted parallel result differs from generated", q)
		}
	}
	// The lazy column reads above land in the DB's registry: Open wires
	// the dataset's I/O counters up after the catalog is built.
	if got := per.Metrics().Value("stetho_batstore_bytes_read_total"); got <= 0 {
		t.Errorf("stetho_batstore_bytes_read_total = %d after querying a persisted dataset", got)
	}
}

// TestOpenPathTablesAndMeta checks that the manifest alone reproduces
// the catalog shape (OpenPath reads no column data up front) and that
// generator provenance survives the round trip.
func TestOpenPathTablesAndMeta(t *testing.T) {
	gen, per, _ := persistedPair(t, 0.002, 11)
	gt, pt := gen.Tables(), per.Tables()
	if len(gt) != len(pt) {
		t.Fatalf("table count: generated %d, persisted %d", len(gt), len(pt))
	}
	for i := range gt {
		if gt[i] != pt[i] {
			t.Errorf("table %d: generated %+v, persisted %+v", i, gt[i], pt[i])
		}
	}
	meta := per.DataMeta()
	if meta["sf"] != "0.002" || meta["seed"] != "11" {
		t.Errorf("persisted meta %v does not carry sf/seed provenance", meta)
	}
}

// TestOpenPathRejectsGeneratorOptions pins the conflict rule: a
// persisted dataset fixes its contents, so WithScaleFactor/WithSeed
// alongside WithPath must fail loudly instead of being ignored.
func TestOpenPathRejectsGeneratorOptions(t *testing.T) {
	_, _, dir := persistedPair(t, 0.001, 42)
	if _, err := stethoscope.OpenPath(dir, stethoscope.WithScaleFactor(0.01)); err == nil {
		t.Fatal("OpenPath(WithScaleFactor) succeeded, want conflict error")
	}
	if _, err := stethoscope.OpenPath(dir, stethoscope.WithSeed(1)); err == nil {
		t.Fatal("OpenPath(WithSeed) succeeded, want conflict error")
	}
	// Execution options are orthogonal to the data source and must
	// still work.
	db, err := stethoscope.OpenPath(dir,
		stethoscope.WithPartitions(stethoscope.Auto), stethoscope.WithWorkers(stethoscope.Auto))
	if err != nil {
		t.Fatalf("OpenPath(partitions/workers): %v", err)
	}
	db.Close()
}

// TestOpenPathMissingDataset wants the friendly error, not a raw ENOENT.
func TestOpenPathMissingDataset(t *testing.T) {
	_, err := stethoscope.OpenPath(filepath.Join(t.TempDir(), "nope"))
	if err == nil {
		t.Fatal("OpenPath(empty dir) succeeded")
	}
	if !strings.Contains(err.Error(), "not a persisted dataset") {
		t.Fatalf("error %q does not explain the missing manifest", err)
	}
}

// TestOpenPathCorruptSegmentFailsLoudly flips one payload byte in one
// column file: opening still succeeds (only the manifest is read), a
// query over the damaged column fails with an error naming the segment
// file, and — because datasets must never silently answer wrong —
// queries over undamaged columns keep working.
func TestOpenPathCorruptSegmentFailsLoudly(t *testing.T) {
	_, _, dir := persistedPair(t, 0.002, 42)
	victim := filepath.Join(dir, "sys.lineitem.l_quantity.col")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("read column file: %v", err)
	}
	raw[len(raw)-1] ^= 0xFF // last payload byte of the final segment
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := stethoscope.OpenPath(dir)
	if err != nil {
		t.Fatalf("OpenPath after corruption: %v (open must be manifest-only)", err)
	}
	defer db.Close()
	if _, err := db.Exec(context.Background(), "select min(l_quantity) as mn from lineitem"); err == nil {
		t.Fatal("query over corrupt column succeeded, want checksum error")
	} else if !strings.Contains(err.Error(), "l_quantity.col") {
		t.Fatalf("error %q does not name the damaged segment file", err)
	}
	// Undamaged columns still serve.
	got := tableString(t, db, "select count(*) as n from nation")
	if !strings.Contains(got, "25") {
		t.Fatalf("nation count from undamaged column wrong:\n%s", got)
	}
}

// TestOpenPathTornColumnFailsLoudly truncates a column file mid-frame:
// the scan must report the torn segment, never return short data.
func TestOpenPathTornColumnFailsLoudly(t *testing.T) {
	_, _, dir := persistedPair(t, 0.002, 42)
	victim := filepath.Join(dir, "sys.orders.o_orderpriority.col")
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	db, err := stethoscope.OpenPath(dir)
	if err != nil {
		t.Fatalf("OpenPath after truncation: %v", err)
	}
	defer db.Close()
	_, err = db.Exec(context.Background(), "select distinct o_orderpriority from orders order by o_orderpriority")
	if err == nil {
		t.Fatal("query over torn column succeeded, want torn-segment error")
	}
	if !strings.Contains(err.Error(), "o_orderpriority.col") || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("error %q does not report the torn segment file", err)
	}
}

// TestPersistedDumpCSVMatches exercises the lazy-load path through
// DumpCSV, which reads whole tables rather than query plans.
func TestPersistedDumpCSVMatches(t *testing.T) {
	gen, per, _ := persistedPair(t, 0.002, 42)
	for _, table := range []string{"nation", "region", "supplier"} {
		var want, got strings.Builder
		if err := gen.DumpCSV(&want, table, 0); err != nil {
			t.Fatalf("DumpCSV generated %s: %v", table, err)
		}
		if err := per.DumpCSV(&got, table, 0); err != nil {
			t.Fatalf("DumpCSV persisted %s: %v", table, err)
		}
		if want.String() != got.String() {
			t.Errorf("%s: persisted CSV differs from generated", table)
		}
	}
}
