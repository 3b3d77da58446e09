package stethoscope_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"stethoscope"
)

// scalingQuery is an aggregate/group-by TPC-H pipeline whose merged
// aggregates (count, min, max) are exact under mitosis, so auto and
// sequential execution must agree byte for byte.
const scalingQuery = "select l_returnflag, count(*) as n, min(l_quantity) as mn, max(l_quantity) as mx " +
	"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag order by l_returnflag"

// scalingJoinQuery probes the sliced lineitem scan against a packed
// orders build: the partitioned hash join's headline shape. Counts only,
// so auto and sequential execution must agree byte for byte.
const scalingJoinQuery = "select o_orderpriority, count(*) as n from lineitem, orders " +
	"where l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority"

// scalingSortQuery is the fused ORDER BY ... LIMIT shape: per-slice
// sorts, per-slice top-k truncation, one k-way merge. Sorts never
// re-associate values, so results are byte-identical too.
const scalingSortQuery = "select l_orderkey, l_extendedprice from lineitem " +
	"order by l_extendedprice desc, l_orderkey limit 100"

// bestOfQ runs q n times under the given options and returns the
// fastest run plus the last result.
func bestOfQ(t *testing.T, db *stethoscope.DB, q string, n int, opts ...stethoscope.ExecOption) (time.Duration, *stethoscope.Result) {
	t.Helper()
	best := time.Duration(1<<62 - 1)
	var res *stethoscope.Result
	for i := 0; i < n; i++ {
		r, err := db.Exec(context.Background(), q, opts...)
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		if r.Stats.Elapsed < best {
			best = r.Stats.Elapsed
		}
		res = r
	}
	return best, res
}

// TestAutoParallelSpeedup is the acceptance gate of the adaptive
// execution path: on a machine with at least 4 cores, the auto-tuned
// aggregate query must run at least 2x faster than fully sequential
// execution, with byte-identical results (its aggregates are exact
// under mergetable recombination). On fewer cores (where auto
// legitimately resolves to little or no parallelism) and under the race
// detector the ratio assertion is skipped but result equality still
// holds. The sort above the 3-row group-by output is packed, so the
// fan-out is sized from the scan below it.
func TestAutoParallelSpeedup(t *testing.T) {
	speedupGate(t, scalingQuery, "scan", 2.0)
}

// speedupGate runs q sequentially and auto-tuned, requires byte-
// identical results and the expected cost shape in the tuning note,
// and — on >= 4 usable cores (GOMAXPROCS and hardware both) outside the
// race detector — asserts the auto path is at least minRatio faster.
func speedupGate(t *testing.T, q, wantShape string, minRatio float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short mode")
	}
	db, err := stethoscope.Open(
		stethoscope.WithScaleFactor(0.05), stethoscope.WithSeed(42),
		stethoscope.WithPartitions(stethoscope.Auto),
		stethoscope.WithWorkers(stethoscope.Auto))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const rounds = 5
	seqBest, seqRes := bestOfQ(t, db, q, rounds, stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
	autoBest, autoRes := bestOfQ(t, db, q, rounds)

	var seqBuf, autoBuf strings.Builder
	if err := seqRes.WriteTable(&seqBuf); err != nil {
		t.Fatal(err)
	}
	if err := autoRes.WriteTable(&autoBuf); err != nil {
		t.Fatal(err)
	}
	if seqBuf.String() != autoBuf.String() {
		t.Fatalf("auto execution result differs from sequential:\nseq:\n%s\nauto:\n%s", seqBuf.String(), autoBuf.String())
	}
	// The cost shape that sized the fan-out must be recorded whatever
	// the core count — a single-core "-> sequential" note still says
	// which model produced it.
	if !strings.Contains(autoRes.Stats.TuneReason, "shape="+wantShape) {
		t.Errorf("tuning reason %q lacks shape=%s", autoRes.Stats.TuneReason, wantShape)
	}

	// GOMAXPROCS above the hardware core count adds threads, not
	// parallelism, so the gate needs both to be >= 4.
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	ratio := float64(seqBest) / float64(autoBest)
	t.Logf("procs=%d auto: partitions=%d workers=%d (%s) seq=%v auto=%v ratio=%.2fx",
		procs, autoRes.Stats.Partitions, autoRes.Stats.Workers, autoRes.Stats.TuneReason,
		seqBest, autoBest, ratio)
	if procs < 4 {
		t.Skipf("speedup ratio needs >= 4 cores, have GOMAXPROCS=%d on %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if raceEnabled {
		t.Skip("speedup ratio skipped under the race detector")
	}
	if autoRes.Stats.Partitions < 2 || autoRes.Stats.Workers < 2 {
		t.Fatalf("auto resolved to partitions=%d workers=%d on a %d-core machine",
			autoRes.Stats.Partitions, autoRes.Stats.Workers, procs)
	}
	if ratio < minRatio {
		t.Errorf("auto-parallel speedup = %.2fx, want >= %.1fx (seq %v, auto %v)", ratio, minRatio, seqBest, autoBest)
	}
}

// TestAutoParallelJoinSpeedup is the acceptance gate of join mitosis:
// the build-once/probe-per-slice hash join must run at least 2x faster
// auto-tuned than fully sequential on a >= 4-core machine, with
// byte-identical results and a fan-out sized from the probe side.
func TestAutoParallelJoinSpeedup(t *testing.T) {
	speedupGate(t, scalingJoinQuery, "join-probe", 2.0)
}

// TestAutoParallelSortSpeedup gates sort mitosis: per-slice sorts with
// fused top-k truncation ahead of the k-way merge. The merge and the
// final projections are sequential (Amdahl), so the floor is lower than
// the join's.
func TestAutoParallelSortSpeedup(t *testing.T) {
	speedupGate(t, scalingSortQuery, "sort", 1.5)
}
