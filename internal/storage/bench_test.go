package storage

import (
	"fmt"
	"math/rand"
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
		h := BuildJoinHash(r)
		if _, _, err := h.Probe(l); err != nil {
			b.Fatal(err)
		}
		h.Release()
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

// BenchmarkLikeMatchTypes is Q14's "p_type like 'PROMO%'": 150 part
// types over 300k rows.
func BenchmarkLikeMatchTypes(b *testing.B) {
	vals := make([]string, 300_000)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s ANODIZED %d", []string{"PROMO", "STANDARD", "ECONOMY"}[i%3], i*7%50)
	}
	col := FromStrings(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LikeMatch(col, "PROMO%"); err != nil {
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

// stringColumn is a 300k-row ship-mode column, the shape of the string
// columns the analytic statements filter and project.
func stringColumn() *BAT {
	vals := make([]string, 300_000)
	for i := range vals {
		vals[i] = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}[i*11%7]
	}
	return FromStrings(vals)
}

// BenchmarkStringIn is Q12's "l_shipmode in ('MAIL', 'SHIP')": two
// equality comparisons over a string column and their or.
func BenchmarkStringIn(b *testing.B) {
	col := stringColumn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _ := CompareScalar(EQ, col, StrVal("MAIL"), false)
		y, _ := CompareScalar(EQ, col, StrVal("SHIP"), false)
		if _, err := BoolCombine(false, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectStrings gathers two thirds of a string column.
func BenchmarkProjectStrings(b *testing.B) {
	col := stringColumn()
	oids, _ := ThetaSelect(col, LT, StrVal("REG AIR"), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Project(oids, col); err != nil {
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

// BenchmarkSelectivity times the selection and predicate kernels over a
// seeded random 75 000-row column, the size of a Q19 piece at SF 0.05,
// with 1, 50 and 99 % of its rows passing. benchColumn's cells come in
// runs that pass or fail together, so a loop that branches on a cell
// never mispredicts there; in a random column at 50 % it does about
// every other row. Outputs are released under a run in flight, as the
// engine releases them, so a selection's buffer is a recycled one and
// the loop is most of what is timed.
func BenchmarkSelectivity(b *testing.B) {
	const n = 75_000
	rng := rand.New(rand.NewSource(47))
	ints, flts := make([]int64, n), make([]float64, n)
	for i := range ints {
		ints[i] = rng.Int63n(10_000)
		flts[i] = float64(ints[i]) / 100
	}
	ic, fc := FromInts(Int, ints), FromFloats(flts)
	defer Running()()
	for _, pct := range []int{1, 50, 99} {
		// pct % of the cells are below cut, and pct % lie in [lo, hi), a
		// window in the middle of the domain, so both bounds of a range
		// decide some rows.
		cut := int64(pct) * 100
		lo := (10_000 - cut) / 2
		hi := lo + cut
		flags, err := CompareScalar(LT, ic, IntVal(cut), false)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []struct {
			name string
			run  func() (*BAT, error)
		}{
			{"RangeSelect", func() (*BAT, error) { return RangeSelect(ic, IntVal(lo), IntVal(hi), true, false, nil) }},
			{"ThetaSelect", func() (*BAT, error) { return ThetaSelect(fc, LT, FltVal(float64(cut)/100), nil) }},
			{"Between", func() (*BAT, error) { return Between(fc, FltVal(float64(lo)/100), FltVal(float64(hi-1)/100)) }},
			{"SelectTrue", func() (*BAT, error) { return SelectTrue(flags) }},
			{"CompareScalar", func() (*BAT, error) { return CompareScalar(LT, ic, IntVal(cut), false) }},
		} {
			b.Run(fmt.Sprintf("%s/sel=%d", k.name, pct), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := k.run()
					if err != nil {
						b.Fatal(err)
					}
					out.Release()
				}
			})
		}
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
	// Encoding a string column builds its dictionary; the kernel is what
	// is measured, and runs on codes like an integer one.
	modes := make([]string, 4_000)
	for i := range modes {
		modes[i] = []string{"AIR", "MAIL", "SHIP", "TRUCK", "RAIL"}[i*7%5]
	}
	strs := FromStrings(modes)
	strCands, _ := ThetaSelect(strs, NE, StrVal("RAIL"), nil)
	allocs := func(f func()) float64 { return testing.AllocsPerRun(5, f) }
	for name, f := range map[string]func(){
		"ThetaSelect":           func() { ThetaSelect(col, LT, IntVal(500), nil) },
		"ThetaSelect/cands":     func() { ThetaSelect(col, LT, IntVal(500), cands) },
		"ThetaSelect/promo":     func() { ThetaSelect(col, LT, FltVal(500.5), cands) },
		"RangeSelect":           func() { RangeSelect(col, IntVal(100), IntVal(400), true, false, nil) },
		"RangeSelect/cands":     func() { RangeSelect(col, IntVal(100), IntVal(400), true, false, cands) },
		"Project":               func() { Project(cands, col) },
		"CompareScalar":         func() { CompareScalar(GE, col, IntVal(500), true) },
		"Between":               func() { Between(col, IntVal(100), IntVal(400)) },
		"Aggr/global":           func() { Aggr(AggrSum, col, nil, 0) },
		"ArithScalar":           func() { ArithScalar(Sub, col, IntVal(1), true) },
		"Str/ThetaSelect":       func() { ThetaSelect(strs, EQ, StrVal("MAIL"), nil) },
		"Str/ThetaSelect/cands": func() { ThetaSelect(strs, LT, StrVal("SHIP"), strCands) },
		"Str/RangeSelect":       func() { RangeSelect(strs, StrVal("B"), StrVal("S"), true, false, nil) },
		"Str/Project":           func() { Project(strCands, strs) },
		"Str/CompareScalar":     func() { CompareScalar(EQ, strs, StrVal("AIR"), false) },
		"Str/Between":           func() { Between(strs, StrVal("AIR"), StrVal("RAIL")) },
		"Str/LikeMatch":         func() { LikeMatch(strs, "%AI%") },
		"Str/SortOrder":         func() { SortOrder(strs, true) },
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
	// A string column groups by code under the same bounds.
	names := make([]string, 50_000)
	for i := range names {
		names[i] = fmt.Sprintf("Customer#%09d", i*7%50_000)
	}
	manyStrs := FromStrings(names)
	if got := allocs(func() { Group(manyStrs, nil) }); got > 3*13+3 {
		t.Errorf("grouping 50000 distinct strings: %.0f allocations, want at most %d", got, 3*13+3)
	}
	if got := allocs(func() { Group(strs, nil) }); got > 6 {
		t.Errorf("grouping a five-value string column: %.0f allocations, want at most 6", got)
	}

	// Contiguous oids: a projection through them is a view of the tail
	// and a pack of adjacent views a view of their base, the view's
	// header the only allocation; a selection whose result is contiguous
	// gives back the buffer it took.
	all := denseOIDs(0, col.Len())
	if got := allocs(func() { Project(all, col) }); got > 1 {
		t.Errorf("Project through a dense list: %.0f allocations, want at most 1", got)
	}
	views := []*BAT{col.Slice(0, 1000), col.Slice(1000, 2500), col.Slice(2500, 4000)}
	if got := allocs(func() { Concat(views) }); got > 1 {
		t.Errorf("Concat of adjacent views: %.0f allocations, want at most 1", got)
	}
	out0 := IntermediateBytes()
	every, _ := ThetaSelect(col, GE, IntVal(0), nil)
	if !every.dense || IntermediateBytes() != out0 {
		t.Errorf("a contiguous selection: dense %t, %d bytes checked out, want 0", every.dense, IntermediateBytes()-out0)
	}
	every.Release()

	// Outputs that outgrow a first guess grow through the allocation
	// helper, so the steady state of a run that releases them recycles
	// every array: a selection keeping 98 % of 100 000 rows, a probe
	// where each row finds 600 build rows.
	t.Run("released", func(t *testing.T) {
		inFlight(t)
		big := benchColumn(100_000)
		build := make([]int64, 60_000)
		for i := range build {
			build[i] = int64(i % 100)
		}
		h := BuildJoinHash(FromInts(Int, build))
		keys := make([]int64, 20)
		for i := range keys {
			keys[i] = int64(i * 5)
		}
		probe := FromInts(Int, keys)
		for name, f := range map[string]func(){
			"ThetaSelect 98 %": func() {
				out, _ := ThetaSelect(big, LT, IntVal(980), nil)
				out.Release()
			},
			"Probe 1:600": func() {
				lo, ro, _ := h.Probe(probe)
				lo.Release()
				ro.Release()
			},
		} {
			if got := allocs(f); got > 1 {
				t.Errorf("%s: %.0f allocations per released call, want at most 1", name, got)
			}
		}
	})
}

// TestKernelAllocsRecycled is TestKernelAllocCeilings' steady state for
// the kernels whose outputs come from the allocation helper. Each call
// releases what it returns, as the engine does when the variable holding
// it dies, while another array stays checked out, as a running plan's
// do: the next call's buffer and header are the previous call's,
// recycled, so the output itself costs no allocation.
func TestKernelAllocsRecycled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	inFlight(t)
	col := benchColumn(4_000)
	cands, _ := ThetaSelect(col, LT, IntVal(900), nil)
	strs := FromStrings([]string{"AIR", "MAIL", "SHIP", "TRUCK", "RAIL"})
	strs, _ = Project(FromInts(OID, make([]int64, 4_000)), strs)
	h := BuildJoinHash(benchColumn(1_000))
	flags, _ := CompareScalar(LT, col, IntVal(500), false)
	done := func(b *BAT, _ error) { b.Release() }
	for name, c := range map[string]struct {
		f    func()
		want float64
	}{
		"ThetaSelect":       {func() { done(ThetaSelect(col, LT, IntVal(500), nil)) }, 0},
		"ThetaSelect/cands": {func() { done(ThetaSelect(col, LT, IntVal(500), cands)) }, 0},
		// The float operand promotes the integer column: one array.
		"ThetaSelect/promo": {func() { done(ThetaSelect(col, LT, FltVal(500.5), cands)) }, 1},
		"RangeSelect":       {func() { done(RangeSelect(col, IntVal(100), IntVal(400), true, false, nil)) }, 0},
		"RangeSelect/cands": {func() { done(RangeSelect(col, IntVal(100), IntVal(400), true, false, cands)) }, 0},
		"Project":           {func() { done(Project(cands, col)) }, 0},
		"Str/ThetaSelect":   {func() { done(ThetaSelect(strs, EQ, StrVal("MAIL"), nil)) }, 0},
		"Str/Project":       {func() { done(Project(cands, strs)) }, 0},
		"Str/SortOrder":     {func() { done(SortOrder(strs, true), nil) }, 0},
		"SelectTrue":        {func() { done(SelectTrue(flags)) }, 0},
		"JoinHash.Probe": {func() {
			lo, ro, _ := h.Probe(col)
			lo.Release()
			ro.Release()
		}, 0},
	} {
		if got := testing.AllocsPerRun(5, c.f); got > c.want {
			t.Errorf("%s: %.0f allocations per released call, want at most %.0f", name, got, c.want)
		}
	}
}
