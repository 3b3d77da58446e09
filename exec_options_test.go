// Regression tests for execution-option validation and adaptive
// selection: every entry point (Exec, Explain, Debug, server QUERY)
// must normalize partition/worker settings before plan-cache keys are
// built or history metadata is recorded, and Auto must resolve to a
// concrete, recorded fan-out.
package stethoscope_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"stethoscope"
	"stethoscope/internal/runner"
)

// TestExecOptionZeroDoesNotAliasPlanCache pins the ExecPartitions(0)
// bug: the un-normalized 0 used to compile the identical partitions=1
// plan into a second cache entry under Key{Partitions:0}.
func TestExecOptionZeroDoesNotAliasPlanCache(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Exec(context.Background(), figure1Query, stethoscope.ExecPartitions(1)); err != nil {
		t.Fatalf("Exec(partitions=1): %v", err)
	}
	for _, n := range []int{0, -3} {
		res, err := db.Exec(context.Background(), figure1Query, stethoscope.ExecPartitions(n))
		if err != nil {
			t.Fatalf("Exec(partitions=%d): %v", n, err)
		}
		if !res.Stats.CacheHit {
			t.Errorf("Exec(partitions=%d) missed the cache: settings were not normalized before key construction", n)
		}
		if res.Stats.Partitions != 1 {
			t.Errorf("Exec(partitions=%d) reports Partitions=%d, want 1", n, res.Stats.Partitions)
		}
	}
	if got := db.Stats().Cache.Len; got != 1 {
		t.Errorf("plan cache holds %d entries, want 1 (0/-3 aliased the partitions=1 plan)", got)
	}
}

// TestExecOptionZeroWorkersNormalized: worker counts Open would reject
// must clamp to sequential execution, not reach the engine raw.
func TestExecOptionZeroWorkersNormalized(t *testing.T) {
	db := openTestDB(t)
	for _, n := range []int{0, -1} {
		res, err := db.Exec(context.Background(), figure1Query, stethoscope.ExecWorkers(n))
		if err != nil {
			t.Fatalf("Exec(workers=%d): %v", n, err)
		}
		if res.Stats.Workers != 1 {
			t.Errorf("Exec(workers=%d) reports Workers=%d, want 1", n, res.Stats.Workers)
		}
	}
}

// TestExecWorkersCeiling: a worker count above runner.MaxWorkers per
// query costs the statement an error naming the limit before anything
// runs, and the DB keeps answering; as the DB default, above
// runner.MaxWorkers or a partition count above runner.MaxPartitions,
// Open refuses it with an error naming the limit.
func TestExecWorkersCeiling(t *testing.T) {
	db := openTestDB(t)
	ctx := context.Background()
	limit := strconv.Itoa(runner.MaxWorkers)
	if _, err := db.Exec(ctx, figure1Query, stethoscope.ExecWorkers(runner.MaxWorkers+1)); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("Exec(workers=%d) = %v, want an error naming the limit", runner.MaxWorkers+1, err)
	}
	if st := db.Stats(); st.Execs != 0 || st.Cache.Misses != 0 {
		t.Errorf("the refused statement ran or compiled: %+v", st)
	}
	if _, err := db.Exec(ctx, figure1Query, stethoscope.ExecWorkers(2)); err != nil {
		t.Fatalf("Exec(workers=2) after the refusal: %v", err)
	}
	if wide, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithWorkers(runner.MaxWorkers+1)); err == nil || !strings.Contains(err.Error(), limit) {
		if wide != nil {
			wide.Close()
		}
		t.Errorf("Open(WithWorkers(%d)) = %v, want an error naming the limit", runner.MaxWorkers+1, err)
	}
	plimit := strconv.Itoa(runner.MaxPartitions)
	if wide, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithPartitions(runner.MaxPartitions+1)); err == nil || !strings.Contains(err.Error(), plimit) {
		if wide != nil {
			wide.Close()
		}
		t.Errorf("Open(WithPartitions(%d)) = %v, want an error naming the limit", runner.MaxPartitions+1, err)
	}
}

// TestExplainAndDebugShareNormalization: the sibling entry points run
// through the same validation helper as Exec.
func TestExplainAndDebugShareNormalization(t *testing.T) {
	db := openTestDB(t)
	base, err := db.Explain(figure1Query, stethoscope.ExecPartitions(1))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	zero, err := db.Explain(figure1Query, stethoscope.ExecPartitions(0))
	if err != nil {
		t.Fatalf("Explain(partitions=0): %v", err)
	}
	if zero != base {
		t.Error("Explain(partitions=0) produced a different listing than partitions=1")
	}
	if got := db.Stats().Cache.Len; got != 1 {
		t.Errorf("plan cache holds %d entries after Explain 1/0, want 1", got)
	}
	d1, err := db.Debug(figure1Query, stethoscope.ExecPartitions(1))
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	d0, err := db.Debug(figure1Query, stethoscope.ExecPartitions(0))
	if err != nil {
		t.Fatalf("Debug(partitions=0): %v", err)
	}
	if d0.PlanSize() != d1.PlanSize() {
		t.Errorf("Debug(partitions=0) plan size %d != partitions=1 size %d", d0.PlanSize(), d1.PlanSize())
	}
}

// TestHistoryMetadataNormalized: the durable RunMeta must record the
// normalized (and resolved) settings, never the raw out-of-range input.
func TestHistoryMetadataNormalized(t *testing.T) {
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42),
		stethoscope.WithHistory(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	res, err := db.Exec(context.Background(), figure1Query,
		stethoscope.ExecPartitions(0), stethoscope.ExecWorkers(-2))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	run, err := db.History().Get(res.Stats.RunID)
	if err != nil {
		t.Fatalf("run %d not in history: %v", res.Stats.RunID, err)
	}
	if run.Info.Partitions != 1 || run.Info.Workers != 1 {
		t.Errorf("history recorded partitions=%d workers=%d, want 1/1",
			run.Info.Partitions, run.Info.Workers)
	}
	if run.Info.AutoTuned {
		t.Error("explicit (clamped) settings recorded as auto-tuned")
	}
}

// TestAutoExecution: Auto resolves to concrete counts, records why, and
// produces results identical to explicit sequential execution.
func TestAutoExecution(t *testing.T) {
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42),
		stethoscope.WithPartitions(stethoscope.Auto),
		stethoscope.WithWorkers(stethoscope.Auto),
		stethoscope.WithHistory(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	auto, err := db.Exec(context.Background(), figure1Query)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if auto.Stats.Partitions < 1 || auto.Stats.Workers < 1 {
		t.Fatalf("auto resolved to partitions=%d workers=%d", auto.Stats.Partitions, auto.Stats.Workers)
	}
	if !auto.Stats.AutoTuned {
		t.Error("Stats.AutoTuned = false under Auto settings")
	}
	if !strings.Contains(auto.Stats.TuneReason, "auto:") {
		t.Errorf("Stats.TuneReason = %q, want an auto: note", auto.Stats.TuneReason)
	}
	// The history RunMeta carries the same resolution.
	run, err := db.History().Get(auto.Stats.RunID)
	if err != nil {
		t.Fatalf("run %d not in history: %v", auto.Stats.RunID, err)
	}
	if !run.Info.AutoTuned || run.Info.TuneReason != auto.Stats.TuneReason {
		t.Errorf("history auto metadata = %v %q, want true %q",
			run.Info.AutoTuned, run.Info.TuneReason, auto.Stats.TuneReason)
	}
	if run.Info.Partitions != auto.Stats.Partitions || run.Info.Workers != auto.Stats.Workers {
		t.Errorf("history records %d/%d, stats %d/%d",
			run.Info.Partitions, run.Info.Workers, auto.Stats.Partitions, auto.Stats.Workers)
	}
	// Results are byte-identical to explicit sequential execution.
	seq, err := db.Exec(context.Background(), figure1Query,
		stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
	if err != nil {
		t.Fatalf("Exec sequential: %v", err)
	}
	var autoBuf, seqBuf strings.Builder
	if err := auto.WriteTable(&autoBuf); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteTable(&seqBuf); err != nil {
		t.Fatal(err)
	}
	if autoBuf.String() != seqBuf.String() {
		t.Error("auto execution result differs from sequential execution")
	}
	// A second auto execution is a cache hit with the same resolution.
	again, err := db.Exec(context.Background(), figure1Query)
	if err != nil {
		t.Fatalf("Exec again: %v", err)
	}
	if !again.Stats.CacheHit {
		t.Error("second auto execution missed the plan cache")
	}
	if again.Stats.Partitions != auto.Stats.Partitions || again.Stats.TuneReason != auto.Stats.TuneReason {
		t.Error("cached auto execution lost its resolution metadata")
	}
}

// TestOpenValidatesConfig: Open still rejects bad explicit settings but
// accepts the Auto sentinel.
func TestOpenValidatesConfig(t *testing.T) {
	if _, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithPartitions(0)); err == nil {
		t.Error("Open(WithPartitions(0)) accepted")
	}
	if _, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005), stethoscope.WithWorkers(-2)); err == nil {
		t.Error("Open(WithWorkers(-2)) accepted")
	}
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(0.005),
		stethoscope.WithPartitions(stethoscope.Auto), stethoscope.WithWorkers(stethoscope.Auto))
	if err != nil {
		t.Fatalf("Open(Auto) rejected: %v", err)
	}
	if _, err := db.Exec(context.Background(), figure1Query); err != nil {
		t.Fatalf("Exec under Auto defaults: %v", err)
	}
}

// TestRecordPreservesAutoMetadata: the offline Record path (tracegen
// -store) must persist the auto-tune resolution exactly as the live
// Exec recording path does.
func TestRecordPreservesAutoMetadata(t *testing.T) {
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.005), stethoscope.WithSeed(42),
		stethoscope.WithPartitions(stethoscope.Auto),
		stethoscope.WithWorkers(stethoscope.Auto))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res, err := db.Exec(context.Background(), figure1Query)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	h, err := stethoscope.OpenHistory(t.TempDir())
	if err != nil {
		t.Fatalf("OpenHistory: %v", err)
	}
	defer h.Close()
	id, err := h.Record(res)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	run, err := h.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !run.Info.AutoTuned || run.Info.TuneReason != res.Stats.TuneReason {
		t.Errorf("Record dropped auto metadata: %v %q, want true %q",
			run.Info.AutoTuned, run.Info.TuneReason, res.Stats.TuneReason)
	}
	if run.Info.Partitions != res.Stats.Partitions || run.Info.Workers != res.Stats.Workers {
		t.Errorf("Record stored %d/%d, stats %d/%d",
			run.Info.Partitions, run.Info.Workers, res.Stats.Partitions, res.Stats.Workers)
	}
}
