package storage

import (
	"strings"
	"testing"
	"testing/quick"
)

func intBAT(vs ...int64) *BAT { return FromInts(Int, vs) }

// appendStr appends one row to a Str BAT. A string already in the
// column's dictionary costs one code; a new one renumbers the column.
func appendStr(b *BAT, v string) {
	if code, ok := b.dict.find(v); ok {
		b.codes = append(b.codes, code)
		return
	}
	b.appendStrs(FromStrings([]string{v}))
}

func TestBATBasics(t *testing.T) {
	b := New(Int, 4)
	for i := int64(0); i < 5; i++ {
		b.AppendInt(i * 10)
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.IntAt(3) != 30 {
		t.Fatalf("IntAt(3) = %d", b.IntAt(3))
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.IntAt(0) != 10 || s.IntAt(1) != 20 {
		t.Fatalf("Slice = %v", s.Ints())
	}
	// Out-of-range slices clamp.
	if b.Slice(-5, 100).Len() != 5 {
		t.Error("Slice should clamp bounds")
	}
	if b.Slice(4, 2).Len() != 0 {
		t.Error("inverted Slice should be empty")
	}
}

func TestBATAppendKinds(t *testing.T) {
	f := New(Flt, 0)
	f.AppendFlt(1.5)
	s := New(Str, 0)
	appendStr(s, "x")
	bo := New(Bool, 0)
	bo.AppendBool(true)
	if f.FltAt(0) != 1.5 || s.StrAt(0) != "x" || !bo.BoolAt(0) {
		t.Fatal("typed append/get broken")
	}
	if err := f.Append(s); err == nil {
		t.Error("Append across kinds should fail")
	}
	f2 := FromFloats([]float64{2.5})
	if err := f.Append(f2); err != nil || f.Len() != 2 {
		t.Errorf("Append: %v len=%d", err, f.Len())
	}
}

func TestThetaSelect(t *testing.T) {
	b := intBAT(5, 1, 3, 5, 2)
	cases := []struct {
		op   CmpOp
		v    int64
		want []int64
	}{
		{EQ, 5, []int64{0, 3}},
		{NE, 5, []int64{1, 2, 4}},
		{LT, 3, []int64{1, 4}},
		{LE, 3, []int64{1, 2, 4}},
		{GT, 3, []int64{0, 3}},
		{GE, 3, []int64{0, 2, 3}},
	}
	for _, c := range cases {
		got, err := ThetaSelect(b, c.op, IntVal(c.v), nil)
		if err != nil {
			t.Fatalf("%v %d: %v", c.op, c.v, err)
		}
		if !equalI64(got.Ints(), c.want) {
			t.Errorf("ThetaSelect %v %d = %v, want %v", c.op, c.v, got.Ints(), c.want)
		}
	}
}

func TestThetaSelectWithCandidates(t *testing.T) {
	b := intBAT(5, 1, 3, 5, 2)
	cands := FromInts(OID, []int64{0, 2, 4})
	got, err := ThetaSelect(b, GE, IntVal(3), cands)
	if err != nil {
		t.Fatal(err)
	}
	if !equalI64(got.Ints(), []int64{0, 2}) {
		t.Errorf("got %v", got.Ints())
	}
	// Bad candidate oid errors out.
	bad := FromInts(OID, []int64{99})
	if _, err := ThetaSelect(b, EQ, IntVal(1), bad); err == nil {
		t.Error("out-of-range candidate accepted")
	}
	// Kind mismatch errors out.
	if _, err := ThetaSelect(b, EQ, StrVal("x"), nil); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestRangeSelectInclusivity(t *testing.T) {
	b := intBAT(1, 2, 3, 4, 5)
	got, _ := RangeSelect(b, IntVal(2), IntVal(4), true, true, nil)
	if !equalI64(got.Ints(), []int64{1, 2, 3}) {
		t.Errorf("[2,4] = %v", got.Ints())
	}
	got, _ = RangeSelect(b, IntVal(2), IntVal(4), false, false, nil)
	if !equalI64(got.Ints(), []int64{2}) {
		t.Errorf("(2,4) = %v", got.Ints())
	}
	got, _ = RangeSelect(b, IntVal(2), IntVal(4), true, false, nil)
	if !equalI64(got.Ints(), []int64{1, 2}) {
		t.Errorf("[2,4) = %v", got.Ints())
	}
}

func TestRangeSelectStrings(t *testing.T) {
	b := FromStrings([]string{"apple", "pear", "fig", "plum"})
	got, err := RangeSelect(b, StrVal("b"), StrVal("q"), true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "pear", "fig" and "plum" all sort within [b, q); "apple" does not.
	if !equalI64(got.Ints(), []int64{1, 2, 3}) {
		t.Errorf("got %v", got.Ints())
	}
}

func TestProject(t *testing.T) {
	col := FromFloats([]float64{0.1, 0.2, 0.3, 0.4})
	oids := FromInts(OID, []int64{3, 0, 3})
	got, err := Project(oids, col)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.1, 0.4}
	for i, v := range want {
		if got.FltAt(i) != v {
			t.Errorf("row %d = %g, want %g", i, got.FltAt(i), v)
		}
	}
	if _, err := Project(FromInts(OID, []int64{9}), col); err == nil {
		t.Error("out-of-range oid accepted")
	}
	if _, err := Project(col, col); err == nil {
		t.Error("non-oid head accepted")
	}
}

func TestHashJoin(t *testing.T) {
	l := intBAT(1, 2, 3, 2)
	r := intBAT(2, 4, 1, 2)
	lo, ro, err := HashJoin(l, r)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ l, r int64 }
	got := map[pair]bool{}
	for i := range lo.Ints() {
		got[pair{lo.IntAt(i), ro.IntAt(i)}] = true
	}
	want := []pair{{0, 2}, {1, 0}, {1, 3}, {3, 0}, {3, 3}}
	if len(got) != len(want) {
		t.Fatalf("join produced %d pairs, want %d: %v", len(got), len(want), got)
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
	// Output is ordered by left oid.
	for i := 1; i < lo.Len(); i++ {
		if lo.IntAt(i) < lo.IntAt(i-1) {
			t.Error("join output not ordered by left oid")
		}
	}
}

func TestHashJoinStringsAndMismatch(t *testing.T) {
	l := FromStrings([]string{"a", "b"})
	r := FromStrings([]string{"b", "b"})
	lo, ro, err := HashJoin(l, r)
	if err != nil || lo.Len() != 2 || ro.Len() != 2 {
		t.Fatalf("string join: %v len=%d", err, lo.Len())
	}
	if _, _, err := HashJoin(l, intBAT(1)); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestGroupAndRefinement(t *testing.T) {
	b := FromStrings([]string{"x", "y", "x", "y", "x"})
	groups, extents, n, err := Group(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ngroups = %d", n)
	}
	if !equalI64(groups.Ints(), []int64{0, 1, 0, 1, 0}) {
		t.Errorf("groups = %v", groups.Ints())
	}
	if !equalI64(extents.Ints(), []int64{0, 1}) {
		t.Errorf("extents = %v", extents.Ints())
	}
	// Refine by a second column.
	c := intBAT(1, 1, 2, 1, 1)
	g2, _, n2, err := Group(c, groups)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 3 {
		t.Fatalf("refined ngroups = %d", n2)
	}
	// rows 0 and 4 share (x,1); row 2 is (x,2) alone; rows 1,3 share (y,1).
	if g2.IntAt(0) != g2.IntAt(4) || g2.IntAt(1) != g2.IntAt(3) || g2.IntAt(2) == g2.IntAt(0) {
		t.Errorf("refined groups = %v", g2.Ints())
	}
}

func TestAggregates(t *testing.T) {
	vals := FromFloats([]float64{1, 2, 3, 4})
	groups := FromInts(OID, []int64{0, 1, 0, 1})
	sum, err := Aggr(AggrSum, vals, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FltAt(0) != 4 || sum.FltAt(1) != 6 {
		t.Errorf("sum = %v", sum.Flts())
	}
	cnt, _ := Aggr(AggrCount, vals, groups, 2)
	if cnt.IntAt(0) != 2 || cnt.IntAt(1) != 2 {
		t.Errorf("count = %v", cnt.Ints())
	}
	mn, _ := Aggr(AggrMin, vals, groups, 2)
	mx, _ := Aggr(AggrMax, vals, groups, 2)
	if mn.FltAt(0) != 1 || mx.FltAt(1) != 4 {
		t.Errorf("min=%v max=%v", mn.Flts(), mx.Flts())
	}
	avg, _ := Aggr(AggrAvg, vals, groups, 2)
	if avg.FltAt(0) != 2 || avg.FltAt(1) != 3 {
		t.Errorf("avg = %v", avg.Flts())
	}
}

func TestAggregatesGlobalAndInt(t *testing.T) {
	vals := intBAT(5, 7, 9)
	sum, err := Aggr(AggrSum, vals, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.IntAt(0) != 21 {
		t.Errorf("global int sum = %d", sum.IntAt(0))
	}
	avg, _ := Aggr(AggrAvg, vals, nil, 0)
	if avg.FltAt(0) != 7 {
		t.Errorf("global avg = %g", avg.FltAt(0))
	}
	strs := FromStrings([]string{"b", "a"})
	mn, err := Aggr(AggrMin, strs, nil, 0)
	if err != nil || mn.StrAt(0) != "a" {
		t.Errorf("string min: %v %q", err, mn.StrAt(0))
	}
	if _, err := Aggr(AggrSum, strs, nil, 0); err == nil {
		t.Error("sum over strings accepted")
	}
}

func TestSortOrderStable(t *testing.T) {
	b := intBAT(3, 1, 2, 1, 3)
	ord := SortOrder(b, true)
	if !equalI64(ord.Ints(), []int64{1, 3, 2, 0, 4}) {
		t.Errorf("asc order = %v", ord.Ints())
	}
	ord = SortOrder(b, false)
	if !equalI64(ord.Ints(), []int64{0, 4, 2, 1, 3}) {
		t.Errorf("desc order = %v", ord.Ints())
	}
}

func TestSortOrderQuickPermutationProperty(t *testing.T) {
	f := func(vs []int64) bool {
		b := FromInts(Int, vs)
		ord := SortOrder(b, true)
		if ord.Len() != len(vs) {
			return false
		}
		seen := make([]bool, len(vs))
		var prev int64
		for i := 0; i < ord.Len(); i++ {
			oid := ord.IntAt(i)
			if oid < 0 || int(oid) >= len(vs) || seen[oid] {
				return false
			}
			seen[oid] = true
			v := vs[oid]
			if i > 0 && v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestArith(t *testing.T) {
	l := intBAT(10, 20, 30)
	r := intBAT(3, 4, 5)
	sum, err := Arith(Add, l, r)
	if err != nil || !equalI64(sum.Ints(), []int64{13, 24, 35}) {
		t.Errorf("add: %v %v", err, sum.Ints())
	}
	div, err := Arith(Div, l, r)
	if err != nil || div.Kind() != Flt {
		t.Fatalf("div: %v kind=%v", err, div.Kind())
	}
	if div.FltAt(1) != 5 {
		t.Errorf("20/4 = %g", div.FltAt(1))
	}
	// Mixed promotes to float.
	f := FromFloats([]float64{0.5, 0.5, 0.5})
	mul, err := Arith(Mul, l, f)
	if err != nil || mul.Kind() != Flt || mul.FltAt(2) != 15 {
		t.Errorf("mixed mul: %v", mul.Flts())
	}
	// Div by zero yields 0.
	z := intBAT(0, 1, 0)
	dz, _ := Arith(Div, l, z)
	if dz.FltAt(0) != 0 || dz.FltAt(2) != 0 {
		t.Errorf("div-by-zero = %v", dz.Flts())
	}
	if _, err := Arith(Add, l, FromStrings([]string{"a", "b", "c"})); err == nil {
		t.Error("string arithmetic accepted")
	}
	if _, err := Arith(Add, l, intBAT(1)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestArithScalar(t *testing.T) {
	b := intBAT(1, 2, 3)
	got, err := ArithScalar(Mul, b, IntVal(10), false)
	if err != nil || !equalI64(got.Ints(), []int64{10, 20, 30}) {
		t.Errorf("scalar mul: %v %v", err, got.Ints())
	}
	// flip: v - b
	got, err = ArithScalar(Sub, b, IntVal(10), true)
	if err != nil || !equalI64(got.Ints(), []int64{9, 8, 7}) {
		t.Errorf("flipped sub: %v %v", err, got.Ints())
	}
	got, err = ArithScalar(Add, b, FltVal(0.5), false)
	if err != nil || got.Kind() != Flt || got.FltAt(0) != 1.5 {
		t.Errorf("float scalar: %v", got.Flts())
	}
}

func TestCompareAndBoolOps(t *testing.T) {
	l := intBAT(1, 5, 3)
	r := intBAT(2, 5, 1)
	lt, err := Compare(LT, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if !lt.BoolAt(0) || lt.BoolAt(1) || lt.BoolAt(2) {
		t.Errorf("lt = %v", lt.Bools())
	}
	eq, _ := Compare(EQ, l, r)
	or, err := BoolCombine(false, lt, eq)
	if err != nil {
		t.Fatal(err)
	}
	oids, err := SelectTrue(or)
	if err != nil {
		t.Fatal(err)
	}
	if !equalI64(oids.Ints(), []int64{0, 1}) {
		t.Errorf("le via or = %v", oids.Ints())
	}
	if _, err := SelectTrue(l); err == nil {
		t.Error("SelectTrue over ints accepted")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	cols := []Column{{"id", Int}, {"name", Str}}
	data := map[string]*BAT{
		"id":   intBAT(1, 2, 3),
		"name": FromStrings([]string{"a", "b", "c"}),
	}
	if err := c.Define("sys", "t", cols, data); err != nil {
		t.Fatal(err)
	}
	b, err := c.Bind("sys", "t", "id")
	if err != nil || b.Len() != 3 {
		t.Fatalf("Bind: %v", err)
	}
	if _, err := c.Bind("sys", "missing", "id"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := c.Bind("sys", "t", "missing"); err == nil {
		t.Error("unknown column accepted")
	}
	tab, _ := c.Table("sys", "t")
	if tab.Rows() != 3 {
		t.Errorf("Rows = %d", tab.Rows())
	}
	k, ok := tab.ColumnKind("name")
	if !ok || k != Str {
		t.Errorf("ColumnKind = %v %v", k, ok)
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "sys.t" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestCatalogDefineErrors(t *testing.T) {
	c := NewCatalog()
	cols := []Column{{"id", Int}}
	if err := c.Define("s", "t", nil, nil); err == nil {
		t.Error("empty columns accepted")
	}
	if err := c.Define("s", "t", cols, map[string]*BAT{}); err == nil {
		t.Error("missing data accepted")
	}
	if err := c.Define("s", "t", cols, map[string]*BAT{"id": FromStrings([]string{"x"})}); err == nil {
		t.Error("kind mismatch accepted")
	}
	cols2 := []Column{{"a", Int}, {"b", Int}}
	if err := c.Define("s", "t", cols2, map[string]*BAT{"a": intBAT(1), "b": intBAT(1, 2)}); err == nil {
		t.Error("ragged rows accepted")
	}
}

// TestFootprintBytes: a BAT's footprint is the size of its backing
// array, computed without allocating; a string column's is four bytes a
// row whatever its strings, whose dictionary the column owns.
func TestFootprintBytes(t *testing.T) {
	short := FromStrings([]string{"a", "b", "a"})
	long := FromStrings([]string{strings.Repeat("a", 1000), strings.Repeat("b", 1000), strings.Repeat("a", 1000)})
	for _, b := range []*BAT{short, long} {
		if got := b.FootprintBytes(); got != 12 {
			t.Errorf("string footprint = %d, want 12", got)
		}
		if a := testing.AllocsPerRun(10, func() { b.FootprintBytes() }); a != 0 {
			t.Errorf("FootprintBytes allocated %.0f times", a)
		}
	}
	i := intBAT(1, 2, 3)
	if got := i.FootprintBytes(); got < 24 {
		t.Errorf("int footprint = %d", got)
	}
}

func equalI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLikeMatch(t *testing.T) {
	b := FromStrings([]string{"PROMO BURNISHED COPPER", "STANDARD TIN", "PROMOX", "PRO", ""})
	out, err := LikeMatch(b, "PROMO%")
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false, false}
	for i, w := range want {
		if out.BoolAt(i) != w {
			t.Errorf("row %d = %v, want %v", i, out.BoolAt(i), w)
		}
	}
	if _, err := LikeMatch(intBAT(1), "%"); err == nil {
		t.Error("like over ints accepted")
	}
}

func TestLikeMatchPatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"abc", "abc", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%c", true},
		{"abc", "c%", false},
		{"abcabc", "%b%b%", true},
		{"mississippi", "%iss%pi", true},
		{"mississippi", "%iss%pz", false},
		{"mississippi", "%iss%ppi", true},
		{"abc", "a%b%c%", true},
		{"ab", "a__", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestSliceViewsOwnTheirRows: a view's capacity ends at its last row,
// for every backing kind. Four views of a 1000-row column report the
// column's bytes between them, not the base's tail four times over, and
// an append to a view copies instead of writing into the base.
func TestSliceViewsOwnTheirRows(t *testing.T) {
	ints := make([]int64, 1000)
	flts := make([]float64, 1000)
	strs := make([]string, 1000)
	bools := make([]bool, 1000)
	for i := range ints {
		ints[i], flts[i], strs[i], bools[i] = int64(i), float64(i), string(rune('a'+i%26)), i%2 == 0
	}
	for _, c := range []struct {
		base *BAT
		cell int64
	}{{FromInts(Int, ints), 8}, {FromFloats(flts), 8}, {FromStrings(strs), 4}, {FromBools(bools), 1}} {
		var total int64
		for p := 0; p < 4; p++ {
			total += c.base.Slice(p*250, (p+1)*250).FootprintBytes()
		}
		if want := 4 * 250 * c.cell; total != want {
			t.Errorf("%s: 4 views of 1000 rows report %d bytes, want %d", c.base.Kind(), total, want)
		}
	}
	base := FromInts(Int, ints)
	view := base.Slice(0, 250)
	view.AppendInt(-1)
	if got := base.IntAt(250); got != 250 {
		t.Errorf("append to view 0 overwrote row 250 of the base: %d", got)
	}
	if view.Len() != 251 || view.IntAt(250) != -1 {
		t.Errorf("view after append: %d rows, last %d", view.Len(), view.IntAt(view.Len()-1))
	}
}
