// Package adaptive implements the data-driven selection of mitosis
// fan-out and dataflow parallelism. MonetDB's mitosis optimizer sizes
// its partition count from the largest table and the core count rather
// than a static session knob; this package is that policy, shared by
// the facade (WithPartitions(Auto), ExecPartitions(Auto)) and the
// server (SET partitions auto). It also owns the normalization rule
// every execution entry point applies to partition/worker settings, so
// out-of-range values cannot alias plan-cache keys or leak into the
// recorded history metadata.
package adaptive

import (
	"fmt"
	"math"
	"runtime"
)

// Auto is the sentinel partition/worker count that requests adaptive
// selection: the fan-out is chosen per query from the catalog row
// counts and the machine's core count instead of being fixed. It is
// the one int no out-of-range input is mistaken for: Normalize sends
// every other value below 1 to 1, so a stray 0 or -1 means "sequential",
// never "adaptive".
const Auto = math.MinInt

// MinRowsPerPartition is the smallest slice worth a partition: below
// this, the per-slice instruction overhead (slice, select, pack)
// costs more than the parallelism buys.
const MinRowsPerPartition = 4096

// MaxPartitions caps the fan-out: past this, plan size (instructions
// per column per partition) grows without additional core coverage.
const MaxPartitions = 64

// Normalize clamps a partition or worker setting into its valid
// domain: Auto is preserved, anything else below 1 becomes 1.
// runner.Prepare applies it to every setting before plan-cache and
// shared-work keys are built or metadata is recorded —
// ExecPartitions(0) used to compile the same plan as partitions=1
// under a distinct cache key and to write the bogus 0 into the history
// RunMeta.
func Normalize(n int) int {
	if n < 1 && n != Auto {
		return 1
	}
	return n
}

// ResolveWorkers turns an Auto worker request into a concrete count
// for a plan compiled with the given partition fan-out; explicit
// counts pass through with an empty reason. Shared by the facade Exec
// path and the server QUERY path so both record identical resolutions.
func ResolveWorkers(requested, partitions int) (int, string) {
	if requested != Auto {
		return requested, ""
	}
	return Workers(partitions, Procs())
}

// JoinReasons combines the partition and worker tuning notes into the
// single reason string Stats and RunMeta carry.
func JoinReasons(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "; " + b
}

// Procs returns the parallelism budget adaptive selection works with:
// GOMAXPROCS(0), the scheduler's actual core allowance.
func Procs() int { return runtime.GOMAXPROCS(0) }

// PartitionsFor chooses the mitosis fan-out from the rows that actually
// parallelize under the query's cost shape, on procs cores. shape names
// where the rows came from and is recorded in the tuning note: "scan"
// (largest scanned table), "join-probe" (the probe-side rows of a
// partitioned hash join — the build side is packed and hashed once, so
// a huge build table must not inflate the fan-out), "sort" (the sorted
// input's rows; the k-way merge recombination is sequential, so the
// fan-out only buys per-slice sort time). The policy: one partition per
// MinRowsPerPartition rows, but never more than the core count would
// keep busy (modestly oversubscribed so slices of uneven selectivity
// still balance), and never more than MaxPartitions. The returned
// reason string records the inputs and the decision for Result.Stats
// and the history RunMeta.
func PartitionsFor(rows, procs int, shape string) (int, string) {
	if procs < 1 {
		procs = 1
	}
	if rows < 2*MinRowsPerPartition || procs == 1 {
		return 1, fmt.Sprintf("auto: shape=%s rows=%d procs=%d -> sequential (below %d-row mitosis threshold or single core)",
			shape, rows, procs, 2*MinRowsPerPartition)
	}
	k := rows / MinRowsPerPartition
	// Oversubscribe 2x so uneven slices (skewed selectivity) rebalance
	// across the worker pool instead of serializing on the slowest slice.
	if cap := 2 * procs; k > cap {
		k = cap
	}
	if k > MaxPartitions {
		k = MaxPartitions
	}
	return k, fmt.Sprintf("auto: shape=%s rows=%d procs=%d -> %d partitions (%d-row target slices, 2x core oversubscription)",
		shape, rows, procs, k, MinRowsPerPartition)
}

// Workers chooses the dataflow worker count for a plan compiled with
// the given partition fan-out, on procs cores. Partitioned plans get
// one worker per core up to the fan-out; unpartitioned plans still get
// two workers when cores allow it (independent per-column chains —
// binds, projections — overlap even without mitosis).
func Workers(partitions, procs int) (int, string) {
	if procs < 1 {
		procs = 1
	}
	if partitions <= 1 {
		w := 2
		if procs < w {
			w = procs
		}
		return w, fmt.Sprintf("auto: partitions=%d procs=%d -> %d workers (column-level overlap only)", partitions, procs, w)
	}
	w := procs
	if partitions < w {
		w = partitions
	}
	return w, fmt.Sprintf("auto: partitions=%d procs=%d -> %d workers", partitions, procs, w)
}
