package storage

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// These benchmarks report what bench/ cannot see: ns, bytes and
// allocations of one kernel call. The end-to-end gate is bench/'s
// serve-analytic; CHANGES.md (PR 20) has the parent-vs-change table.

func benchColumn(n int) *BAT {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 7 % 1000)
	}
	return FromInts(Int, vals)
}

func BenchmarkThetaSelect(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		col := benchColumn(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ThetaSelect(col, LT, IntVal(500), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProject(b *testing.B) {
	col := benchColumn(100_000)
	oids, _ := ThetaSelect(col, LT, IntVal(500), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Project(oids, col); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	l := benchColumn(50_000)
	r := benchColumn(1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := HashJoin(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupAggr(b *testing.B) {
	col := benchColumn(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, extents, n, err := Group(col, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Aggr(AggrSum, col, groups, n); err != nil {
			b.Fatal(err)
		}
		_ = extents
	}
}

func BenchmarkSortOrder(b *testing.B) {
	col := benchColumn(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortOrder(col, true)
	}
}

func BenchmarkLikeMatch(b *testing.B) {
	vals := make([]string, 10_000)
	for i := range vals {
		vals[i] = fmt.Sprintf("PROMO BURNISHED COPPER %d", i)
	}
	col := FromStrings(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LikeMatch(col, "%BURNISHED%"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinBuildProbe is the shape of the analytic joins: a 150k-row
// integer build side with duplicate keys, probed by 300k rows of which
// some miss.
func BenchmarkJoinBuildProbe(b *testing.B) {
	build := make([]int64, 150_000)
	for i := range build {
		build[i] = int64(i * 7 % 100_000)
	}
	probe := make([]int64, 300_000)
	for i := range probe {
		probe[i] = int64(i * 13 % 120_000)
	}
	r, l := FromInts(Int, build), FromInts(Int, probe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildJoinHash(r).Probe(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupTwoStringKeys is Q1's grouping: two low-cardinality
// string keys over 300k rows, the second refining the first.
func BenchmarkGroupTwoStringKeys(b *testing.B) {
	flag, status := make([]string, 300_000), make([]string, 300_000)
	for i := range flag {
		flag[i] = []string{"A", "N", "R"}[i*7%3]
		status[i] = []string{"F", "O"}[i*11%2]
	}
	f, s := FromStrings(flag), FromStrings(status)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, _, err := Group(f, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := Group(s, g); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFloats(n int) *BAT {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i*7%1000) / 10
	}
	return FromFloats(vals)
}

func BenchmarkCompareScalar(b *testing.B) {
	col := benchFloats(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareScalar(LT, col, IntVal(24), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSelect(b *testing.B) {
	col := benchColumn(100_000)
	cands, _ := ThetaSelect(col, NE, IntVal(3), nil)
	for _, c := range []*BAT{nil, cands} {
		b.Run(fmt.Sprintf("cands=%t", c != nil), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RangeSelect(col, IntVal(100), IntVal(400), true, false, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKernelAllocCeilings pins the allocation behaviour the typed kernels
// were written for: a selection or a projection is a result buffer and
// its header whatever the row count, a join build allocates the same
// number of objects for one distinct key as for 50 000, and a grouping
// allocates with the logarithm of the number of groups, not with it.
func TestKernelAllocCeilings(t *testing.T) {
	// A collection in the middle of a measured call allocates on its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	col := benchColumn(4_000)
	cands, _ := ThetaSelect(col, LT, IntVal(900), nil)
	allocs := func(f func()) float64 { return testing.AllocsPerRun(5, f) }
	for name, f := range map[string]func(){
		"ThetaSelect":        func() { ThetaSelect(col, LT, IntVal(500), nil) },
		"ThetaSelect/cands":  func() { ThetaSelect(col, LT, IntVal(500), cands) },
		"ThetaSelect/promo":  func() { ThetaSelect(col, LT, FltVal(500.5), cands) },
		"RangeSelect":        func() { RangeSelect(col, IntVal(100), IntVal(400), true, false, nil) },
		"RangeSelect/cands":  func() { RangeSelect(col, IntVal(100), IntVal(400), true, false, cands) },
		"Project":            func() { Project(cands, col) },
		"CompareScalar":      func() { CompareScalar(GE, col, IntVal(500), true) },
		"Between":            func() { Between(col, IntVal(100), IntVal(400)) },
		"Aggr/global":        func() { Aggr(AggrSum, col, nil, 0) },
		"ArithScalar":        func() { ArithScalar(Sub, col, IntVal(1), true) },
		"LikeMatch/contains": func() { LikeMatch(FromStrings([]string{"PROMO BURNISHED", "x"}), "%BURNISHED%") },
	} {
		if got := allocs(f); got > 3 {
			t.Errorf("%s: %.0f allocations per call, want at most 3", name, got)
		}
	}

	keyed := func(distinct int) *BAT {
		vals := make([]int64, 50_000)
		for i := range vals {
			vals[i] = int64(i % distinct)
		}
		return FromInts(Int, vals)
	}
	one, many := keyed(1), keyed(50_000)
	if a, b := allocs(func() { BuildJoinHash(one) }), allocs(func() { BuildJoinHash(many) }); a != b || b > 3 {
		t.Errorf("join build: %.0f allocations for 1 distinct key, %.0f for 50000; want equal and at most 3", a, b)
	}
	// Room for 16 groups doubles 12 times on the way to 50 000; each
	// doubling is three arrays; plus the first three, the ids and the two
	// headers. One group never grows.
	if got := allocs(func() { Group(many, nil) }); got > 3*13+3 {
		t.Errorf("grouping 50000 distinct keys: %.0f allocations, want at most %d", got, 3*13+3)
	}
	if got := allocs(func() { Group(one, nil) }); got > 6 {
		t.Errorf("grouping one distinct key: %.0f allocations, want at most 6", got)
	}
}
