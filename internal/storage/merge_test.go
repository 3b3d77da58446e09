package storage

import (
	"math/rand"
	"testing"
)

// mergeRef sorts the concatenation of the runs with the existing stable
// SortOrder/Project machinery — the sequential path MergeRuns must
// reproduce exactly.
func mergeRef(t *testing.T, keyRuns [][]*BAT, asc []bool) *BAT {
	t.Helper()
	// Concatenate each key column.
	packed := make([]*BAT, len(keyRuns))
	for j, runs := range keyRuns {
		out := New(runs[0].Kind(), 0)
		for _, r := range runs {
			if err := out.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		packed[j] = out
	}
	// Stable multi-key sort: least significant key first.
	perm := identity(packed[0].Len())
	for j := len(packed) - 1; j >= 0; j-- {
		col, err := Project(perm, packed[j])
		if err != nil {
			t.Fatal(err)
		}
		order := SortOrder(col, asc[j])
		perm, err = Project(order, perm)
		if err != nil {
			t.Fatal(err)
		}
	}
	return perm
}

// identity is the dense oid sequence 0..n-1: the permutation that
// leaves a column as it is.
func identity(n int) *BAT {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return FromInts(OID, v)
}

// sortRun stable-sorts one run's key columns (least significant first)
// and returns the sorted columns.
func sortRun(t *testing.T, cols []*BAT, asc []bool) []*BAT {
	t.Helper()
	perm := identity(cols[0].Len())
	for j := len(cols) - 1; j >= 0; j-- {
		col, err := Project(perm, cols[j])
		if err != nil {
			t.Fatal(err)
		}
		order := SortOrder(col, asc[j])
		perm, err = Project(order, perm)
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*BAT, len(cols))
	for j, c := range cols {
		s, err := Project(perm, c)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = s
	}
	return out
}

func TestMergeRunsSingleKey(t *testing.T) {
	runs := [][]*BAT{{
		FromInts(Int, []int64{1, 4, 7}),
		FromInts(Int, []int64{2, 3, 9}),
		FromInts(Int, []int64{}),
		FromInts(Int, []int64{5}),
	}}
	perm, err := MergeRuns(runs, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 3, 4, 1, 6, 2, 5}
	if len(perm.Ints()) != len(want) {
		t.Fatalf("perm len = %d, want %d", perm.Len(), len(want))
	}
	for i, w := range want {
		if perm.IntAt(i) != w {
			t.Fatalf("perm[%d] = %d, want %d (%v)", i, perm.IntAt(i), w, perm.Ints())
		}
	}
}

// TestMergeRunsMatchesGlobalStableSort: per-run stable sorts + MergeRuns
// must reproduce the global stable sort's permutation values exactly,
// across kinds, directions, duplicate-heavy keys and empty runs. String
// runs have a dictionary each in odd trials and share one (the slices of
// one column) in even ones.
func TestMergeRunsMatchesGlobalStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		asc := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
		strVals := make([][]string, k)
		intVals := make([][]int64, k)
		var all []string
		for s := 0; s < k; s++ {
			n := rng.Intn(9) // empty runs included
			for i := 0; i < n; i++ {
				strVals[s] = append(strVals[s], tags[rng.Intn(len(tags))])
				intVals[s] = append(intVals[s], int64(rng.Intn(4)))
			}
			all = append(all, strVals[s]...)
		}
		column := FromStrings(all)
		strRuns := make([]*BAT, k)
		intRuns := make([]*BAT, k)
		for s, off := 0, 0; s < k; s++ {
			col := FromStrings(strVals[s])
			if trial%2 == 0 {
				col = column.Slice(off, off+len(strVals[s]))
			}
			off += len(strVals[s])
			sorted := sortRun(t, []*BAT{col, FromInts(Int, intVals[s])}, asc)
			strRuns[s], intRuns[s] = sorted[0], sorted[1]
		}
		keyRuns := [][]*BAT{strRuns, intRuns}
		got, err := MergeRuns(keyRuns, asc)
		if err != nil {
			t.Fatal(err)
		}
		// The reference sorts the same concatenation, so both produce
		// permutations of the same positions; stability makes them equal.
		want := mergeRef(t, keyRuns, asc)
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: merged %d rows, want %d", trial, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if got.IntAt(i) != want.IntAt(i) {
				t.Fatalf("trial %d: perm[%d] = %d, want %d\ngot  %v\nwant %v",
					trial, i, got.IntAt(i), want.IntAt(i), got.Ints(), want.Ints())
			}
		}
	}
}

func TestMergeRunsErrors(t *testing.T) {
	if _, err := MergeRuns(nil, nil); err == nil {
		t.Error("merge of no key groups succeeded")
	}
	if _, err := MergeRuns([][]*BAT{{}}, []bool{true}); err == nil {
		t.Error("merge of zero runs succeeded")
	}
	if _, err := MergeRuns([][]*BAT{
		{FromInts(Int, []int64{1})},
		{FromInts(Int, []int64{1}), FromInts(Int, []int64{2})},
	}, []bool{true, true}); err == nil {
		t.Error("mismatched run counts succeeded")
	}
	if _, err := MergeRuns([][]*BAT{
		{FromInts(Int, []int64{1, 2})},
		{FromInts(Int, []int64{1})},
	}, []bool{true, true}); err == nil {
		t.Error("mismatched run lengths succeeded")
	}
}

// TestJoinHashBuildOnceProbeMany: one build probed slice-by-slice must
// reproduce the pairs of one probe of the whole column exactly,
// including duplicate keys on both sides and empty probes.
func TestJoinHashBuildOnceProbeMany(t *testing.T) {
	build := FromInts(Int, []int64{2, 1, 2, 5})
	probe := FromInts(Int, []int64{1, 2, 2, 7, 5, 1})
	h := BuildJoinHash(build)
	wantL, wantR, err := h.Probe(probe)
	if err != nil {
		t.Fatal(err)
	}
	var gotL, gotR []int64
	for _, bounds := range [][2]int{{0, 2}, {2, 2}, {2, 6}} { // empty middle slice
		lo, ro, err := h.Probe(probe.Slice(bounds[0], bounds[1]))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lo.Len(); i++ {
			gotL = append(gotL, lo.IntAt(i)+int64(bounds[0]))
			gotR = append(gotR, ro.IntAt(i))
		}
	}
	if len(gotL) != wantL.Len() {
		t.Fatalf("probe-per-slice found %d pairs, whole probe %d", len(gotL), wantL.Len())
	}
	for i := range gotL {
		if gotL[i] != wantL.IntAt(i) || gotR[i] != wantR.IntAt(i) {
			t.Fatalf("pair %d: got (%d,%d), want (%d,%d)", i, gotL[i], gotR[i], wantL.IntAt(i), wantR.IntAt(i))
		}
	}
	if _, _, err := h.Probe(FromStrings([]string{"x"})); err == nil {
		t.Error("kind-mismatched probe succeeded")
	}
}
