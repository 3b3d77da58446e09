package storage

import "fmt"

// This file implements the recombination kernel of sort mitosis: a
// stable k-way merge over per-slice sorted runs (MAL's mat.kmerge in
// this reproduction). The compiler sorts every mitosis slice
// independently, then one merge computes the permutation that
// interleaves the runs into the globally sorted order.

// runOrder returns the comparator of one sort key across runs: cols[s]
// is the key's column in run s, and the result compares row i of run r1
// against row j of run r2 in the key's direction — negative when the
// first sorts before the second. Kind and direction are decided here,
// once per key; a comparison reads two typed cells.
func runOrder(cols []*BAT, asc bool) func(r1, i, r2, j int) int {
	switch kind := cols[0].kind; {
	case kind.usesInts():
		return runOrderBy(cols, (*BAT).Ints, threeWay[int64], asc)
	case kind == Flt:
		return runOrderBy(cols, (*BAT).Flts, threeWay[float64], asc)
	case kind == Str:
		return runOrderBy(cols, (*BAT).Strs, threeWay[string], asc)
	default:
		return runOrderBy(cols, (*BAT).Bools, cmpBool, asc)
	}
}

func runOrderBy[T any](cols []*BAT, cells func(*BAT) []T, cmp func(x, y T) int, asc bool) func(r1, i, r2, j int) int {
	runs := make([][]T, len(cols))
	for s, c := range cols {
		runs[s] = cells(c)
	}
	if asc {
		return func(r1, i, r2, j int) int { return cmp(runs[r1][i], runs[r2][j]) }
	}
	return func(r1, i, r2, j int) int { return cmp(runs[r2][j], runs[r1][i]) }
}

// threeWay is -1, 0 or +1 as x is less than, neither, or greater than y.
func threeWay[T ordered](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// MergeRuns computes the permutation that merges k sorted runs into one
// globally sorted sequence. keys[j][s] is sort key j (most significant
// first) of run s, already sorted run-locally under the same keys;
// asc[j] gives key j's direction. The returned oid BAT indexes the
// concatenation of the runs in run order (run 0's rows first), i.e. the
// column layout mat.pack produces.
//
// Stability contract: ties across runs resolve to the lower run index,
// and rows within a run keep their run-local order. Because the
// concatenated run order equals the original row order, a stable
// per-run sort followed by MergeRuns yields the exact permutation a
// stable sort of the whole relation produces — partitioned sorts are
// byte-identical to the sequential path, never approximately equal.
func MergeRuns(keys [][]*BAT, asc []bool) (*BAT, error) {
	if len(keys) == 0 || len(keys) != len(asc) {
		return nil, fmt.Errorf("storage: merge with %d key groups, %d directions", len(keys), len(asc))
	}
	k := len(keys[0])
	if k == 0 {
		return nil, fmt.Errorf("storage: merge of zero runs")
	}
	total := 0
	lens := make([]int, k)
	for s := 0; s < k; s++ {
		lens[s] = keys[0][s].Len()
		total += lens[s]
	}
	for j := 1; j < len(keys); j++ {
		if len(keys[j]) != k {
			return nil, fmt.Errorf("storage: merge key %d has %d runs, key 0 has %d", j, len(keys[j]), k)
		}
		for s := 0; s < k; s++ {
			if keys[j][s].Len() != lens[s] {
				return nil, fmt.Errorf("storage: merge run %d: key %d has %d rows, key 0 has %d", s, j, keys[j][s].Len(), lens[s])
			}
		}
	}

	// offsets[s] is run s's first position in the concatenated layout.
	offsets := make([]int64, k)
	for s := 1; s < k; s++ {
		offsets[s] = offsets[s-1] + int64(lens[s-1])
	}
	cursor := make([]int, k)

	// less orders run heads: keys most-significant first with per-key
	// direction, ties to the lower run index (stability).
	order := make([]func(r1, i, r2, j int) int, len(keys))
	for j := range keys {
		order[j] = runOrder(keys[j], asc[j])
	}
	less := func(r1, r2 int) bool {
		for _, cmp := range order {
			if c := cmp(r1, cursor[r1], r2, cursor[r2]); c != 0 {
				return c < 0
			}
		}
		return r1 < r2
	}

	// Binary min-heap of run indices with live heads: total cost
	// O(n log k) comparisons, so wide fan-outs (k up to 64) do not
	// degrade the merge into an O(n*k) scan.
	heap := make([]int, 0, k)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for s := 0; s < k; s++ {
		if lens[s] > 0 {
			heap = append(heap, s)
			up(len(heap) - 1)
		}
	}

	out := New(OID, total)
	for len(heap) > 0 {
		s := heap[0]
		out.AppendInt(offsets[s] + int64(cursor[s]))
		cursor[s]++
		if cursor[s] >= lens[s] {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out, nil
}
