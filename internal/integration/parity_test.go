package integration

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"stethoscope"
	"stethoscope/internal/tpch"
)

// TestEntryPointParity: every entry point runs through the one run
// service, so the same statement under the same settings must produce
// byte-identical result text from DB.Exec, a TCP QUERY and a TCP QUERY
// with a live TRACE stream — and, history on, each materialized run
// must leave exactly one record whose metadata (partitions, workers,
// instructions, auto, tune reason) and cache_hit match field for field.
// All settings are Auto so the tuning fields are exercised. DB.Stream
// runs the plan Exec runs, so its text equals Exec's byte for byte too
// (float sums included); it is never recorded.
func TestEntryPointParity(t *testing.T) {
	ctx := context.Background()
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42),
		stethoscope.WithPartitions(stethoscope.Auto), stethoscope.WithWorkers(stethoscope.Auto),
		stethoscope.WithHistory(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := db.Serve(ctx, "parity", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := stethoscope.Attach(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	dial := func(trace bool) *stethoscope.Remote {
		r, err := stethoscope.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		// Sessions default to partitions/workers auto already.
		if trace {
			if err := r.TraceTo(mon.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	plain, traced := dial(false), dial(true)
	remoteQuery := func(r *stethoscope.Remote) func(string) (string, error) {
		return func(q string) (string, error) {
			lines, err := r.Query(q)
			return strings.Join(lines, "\n") + "\n", err
		}
	}
	entries := []struct {
		name     string
		run      func(q string) (string, error)
		recorded bool // leaves a history record
	}{
		{"Exec", func(q string) (string, error) {
			res, err := db.Exec(ctx, q)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			err = res.WriteTable(&sb)
			return sb.String(), err
		}, true},
		{"QUERY", remoteQuery(plain), true},
		{"QUERY+TRACE", remoteQuery(traced), true},
		{"Stream", func(q string) (string, error) { return streamText(ctx, db, q) }, false},
	}

	statements := map[string]string{"point": "select l_tax from lineitem where l_partkey=1"}
	for _, id := range []string{"Q1", "Q3", "Q6"} {
		q, ok := tpch.QueryByID(id)
		if !ok {
			t.Fatalf("no TPC-H query %s", id)
		}
		// The wire protocol is line-oriented: one statement, one line.
		statements[id] = strings.Join(strings.Fields(q.SQL), " ")
	}
	for id, q := range statements {
		// Compile once up front so every entry point is a plan-cache hit.
		if _, err := db.Explain(q); err != nil {
			t.Fatalf("%s: Explain: %v", id, err)
		}
		var wantText string
		var wantRun stethoscope.RunInfo
		for i, e := range entries {
			before := len(db.History().Queries(0))
			text, err := e.run(q)
			if err != nil {
				t.Fatalf("%s via %s: %v", id, e.name, err)
			}
			switch {
			case i == 0:
				wantText = text
			case text != wantText:
				t.Errorf("%s via %s: result text differs from %s:\n%s\nwant:\n%s", id, e.name, entries[0].name, text, wantText)
			}
			runs := db.History().Queries(0)
			if !e.recorded {
				if len(runs) != before {
					t.Errorf("%s via %s: left %d history records, want none", id, e.name, len(runs)-before)
				}
				continue
			}
			if len(runs) != before+1 {
				t.Fatalf("%s via %s: left %d history records, want exactly 1", id, e.name, len(runs)-before)
			}
			got := runs[0] // most recent first
			if !got.OK() || got.SQL != q {
				t.Fatalf("%s via %s: recorded run %+v", id, e.name, got)
			}
			if i == 0 {
				wantRun = got
				if !got.AutoTuned || got.TuneReason == "" || !got.CacheHit {
					t.Errorf("%s: reference run is not an auto-tuned plan-cache hit: %+v", id, got)
				}
				continue
			}
			if got.Partitions != wantRun.Partitions || got.Workers != wantRun.Workers ||
				got.Instructions != wantRun.Instructions || got.AutoTuned != wantRun.AutoTuned ||
				got.TuneReason != wantRun.TuneReason || got.CacheHit != wantRun.CacheHit ||
				got.Rows != wantRun.Rows || got.Events != wantRun.Events {
				t.Errorf("%s via %s: recorded %+v\nwant the metadata of %+v", id, e.name, got, wantRun)
			}
		}
	}
}

// streamText drains DB.Stream into the tab-separated text WriteTable
// and the wire protocol produce.
func streamText(ctx context.Context, db *stethoscope.DB, q string, opts ...stethoscope.ExecOption) (string, error) {
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
			switch v := v.(type) {
			case float64:
				sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			default:
				fmt.Fprint(&sb, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String(), it.Err()
}
