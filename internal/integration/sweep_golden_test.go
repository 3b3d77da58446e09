package integration

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stethoscope"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

var update = flag.Bool("update", false, "regenerate testdata goldens")

// loadCatalog generates the catalog stethoscope.Open builds for sf and
// seed.
func loadCatalog(t *testing.T, sf float64, seed uint64) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: sf, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSweepResultGolden pins the bytes of every sweep statement's
// result — length and SHA-256 of Result.WriteTable — at SF 0.01 under
// the sequential lowering and static mitosis at 7 and 64 partitions.
// TestLoweringModesAgree compares the
// modes with each other; this compares each of them with a file, so a
// kernel change that moves every mode the same way (a different oid
// order within a join key, a float sum accumulated in another row
// order, group ids numbered differently) cannot pass unnoticed. The
// fan-outs run on one worker: piece boundaries, not scheduling, decide
// the bytes. `go test ./internal/integration -run TestSweepResultGolden
// -update` regenerates the file when a change of bytes is intended.
func TestSweepResultGolden(t *testing.T) {
	ctx := context.Background()
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(0.01), stethoscope.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	exec := func(parts int) func(q string) string {
		return func(q string) string {
			res, err := db.Exec(ctx, q, stethoscope.ExecPartitions(parts), stethoscope.ExecWorkers(1))
			if err != nil {
				t.Fatalf("%s [partitions=%d]: %v", q, parts, err)
			}
			var sb strings.Builder
			if err := res.WriteTable(&sb); err != nil {
				t.Fatal(err)
			}
			return sb.String()
		}
	}
	modes := []struct {
		name  string
		table func(q string) string
	}{
		{"sequential", exec(1)},
		{"partitions=7", exec(7)},
		{"partitions=64", exec(64)},
	}
	var got strings.Builder
	for i, q := range tpch.SweepQueries() {
		for _, m := range modes {
			table := m.table(q)
			fmt.Fprintf(&got, "%02d %-13s %8d %x\n", i, m.name, len(table), sha256.Sum256([]byte(table)))
		}
	}

	path := filepath.Join("testdata", "sweep_results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d result lines, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("result bytes moved:\n got: %s\nwant: %s", gl[i], wl[i])
		}
	}
}
