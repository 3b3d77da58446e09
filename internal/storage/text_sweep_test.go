package storage_test

import (
	"bufio"
	"bytes"
	"context"
	"testing"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/runner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

// TestWriteTextMatchesReferenceTPCH: every statement of the TPC-H sweep
// and the two paper queries, at SF 0.01, prints byte for byte what the
// replaced formatter printed. QX2's 22 000 rows take the block-write
// and memo paths; the aggregates are the short replies that take
// neither.
func TestWriteTextMatchesReferenceTPCH(t *testing.T) {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.01, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	run := runner.New(cat, nil)
	for _, q := range tpch.Queries() {
		p, err := run.Prepare(q.SQL, runner.Settings{Partitions: adaptive.Auto, Workers: adaptive.Auto})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		out, _, err := run.Run(context.Background(), p, runner.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		var want, got bytes.Buffer
		bw := bufio.NewWriter(&want)
		storage.RefWriteText(bw, out.Res.Names, out.Res.Cols, out.Res.Rows(), '\t')
		bw.Flush()
		n, err := out.Res.WriteText(&got)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if n != int64(want.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: %d rows: WriteText wrote %d bytes that differ from the reference's %d", q.ID, out.Res.Rows(), n, want.Len())
		}
	}
}
