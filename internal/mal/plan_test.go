package mal

import (
	"math"
	"strings"
	"testing"
)

func buildSimplePlan(t *testing.T) *Plan {
	t.Helper()
	p := NewPlan("select l_tax from lineitem where l_partkey=1")
	col := p.Emit1("sql", "bind", TBATInt, ConstOf(Str("sys")), ConstOf(Str("lineitem")), ConstOf(Str("l_partkey")), ConstOf(Int64(0)))
	sel := p.Emit1("algebra", "select", TBATOID, VarArg(col), ConstOf(Int64(1)), ConstOf(Int64(1)))
	tax := p.Emit1("sql", "bind", TBATFlt, ConstOf(Str("sys")), ConstOf(Str("lineitem")), ConstOf(Str("l_tax")), ConstOf(Int64(0)))
	prj := p.Emit1("algebra", "leftjoin", TBATFlt, VarArg(sel), VarArg(tax))
	p.Emit0("sql", "resultSet", VarArg(prj))
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func TestPlanBuildAndValidate(t *testing.T) {
	p := buildSimplePlan(t)
	if got := len(p.Instrs); got != 5 {
		t.Fatalf("instr count = %d, want 5", got)
	}
	for i, in := range p.Instrs {
		if in.PC != i {
			t.Errorf("instr %d has pc %d", i, in.PC)
		}
	}
}

func TestStmtString(t *testing.T) {
	p := buildSimplePlan(t)
	got := p.StmtString(p.Instrs[1])
	want := `X_1:bat[:oid] := algebra.select(X_0, 1, 1);`
	if got != want {
		t.Errorf("StmtString = %q, want %q", got, want)
	}
}

func TestStmtStringMultiReturn(t *testing.T) {
	p := NewPlan("")
	a := p.NewVar(TBATOID)
	b := p.NewVar(TBATOID)
	src := p.Emit1("sql", "bind", TBATInt, ConstOf(Str("t")))
	p.Emit("group", "subgroup", []int{a, b}, VarArg(src))
	got := p.StmtString(p.Instrs[1])
	if !strings.HasPrefix(got, "(X_0:bat[:oid], X_1:bat[:oid]) := group.subgroup(") {
		t.Errorf("multi-return StmtString = %q", got)
	}
}

func TestDeps(t *testing.T) {
	p := buildSimplePlan(t)
	deps := p.Deps()
	cases := []struct {
		pc   int
		want []int
	}{
		{0, nil},
		{1, []int{0}},
		{2, nil},
		{3, []int{1, 2}},
		{4, []int{3}},
	}
	for _, c := range cases {
		if !equalInts(deps[c.pc], c.want) {
			t.Errorf("deps[%d] = %v, want %v", c.pc, deps[c.pc], c.want)
		}
	}
}

func TestUsesIsTransposeOfDeps(t *testing.T) {
	p := buildSimplePlan(t)
	deps, uses := p.Deps(), p.Uses()
	for pc, ds := range deps {
		for _, d := range ds {
			if !containsInt(uses[d], pc) {
				t.Errorf("uses[%d] missing %d", d, pc)
			}
		}
	}
	for pc, us := range uses {
		for _, u := range us {
			if !containsInt(deps[u], pc) {
				t.Errorf("deps[%d] missing %d", u, pc)
			}
		}
	}
}

func TestValidateRejectsUseBeforeDef(t *testing.T) {
	p := NewPlan("")
	v := p.NewVar(TBATInt)
	p.Emit1("algebra", "select", TBATOID, VarArg(v))
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted use-before-def")
	}
}

func TestValidateRejectsDoubleAssign(t *testing.T) {
	p := NewPlan("")
	v := p.NewVar(TBATInt)
	p.Emit("sql", "bind", []int{v}, ConstOf(Str("a")))
	p.Emit("sql", "bind", []int{v}, ConstOf(Str("b")))
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted double assignment")
	}
}

func TestValidateRejectsBadPC(t *testing.T) {
	p := buildSimplePlan(t)
	p.Instrs[2].PC = 99
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted wrong pc")
	}
	p.Renumber()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after Renumber: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildSimplePlan(t)
	q := p.Clone()
	q.Instrs[0].Module = "changed"
	q.Instrs[0].Args[0] = ConstOf(Str("zzz"))
	q.Vars[0].Name = "Y_0"
	if p.Instrs[0].Module == "changed" {
		t.Error("Clone shares Instr structs")
	}
	if p.Instrs[0].Args[0].Const.Str == "zzz" {
		t.Error("Clone shares Args slices")
	}
	if p.Vars[0].Name == "Y_0" {
		t.Error("Clone shares Vars slice")
	}
}

// TestTypeStringParseRoundTrip pins the notation Type.String prints in
// result annotations, the EXPLAIN listing format.
func TestTypeStringParseRoundTrip(t *testing.T) {
	for typ, want := range map[Type]string{
		TVoid: "void", TInt: "int", TFlt: "flt", TStr: "str", TBool: "bit", TDate: "date", TOID: "oid",
		TBATInt: "bat[:int]", TBATFlt: "bat[:flt]", TBATStr: "bat[:str]", TBATBool: "bat[:bit]",
		TBATDate: "bat[:date]", TBATOID: "bat[:oid]", THash: "hash", Type(99): "type(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", int(typ), got, want)
		}
	}
}

func TestBATOfElem(t *testing.T) {
	for _, el := range []Type{TInt, TFlt, TStr, TBool, TDate, TOID} {
		b := BATOf(el)
		if !b.IsBAT() {
			t.Errorf("BATOf(%v) = %v not a BAT", el, b)
		}
		if b.Elem() != el {
			t.Errorf("Elem(BATOf(%v)) = %v", el, b.Elem())
		}
	}
	if BATOf(TVoid) != TVoid {
		t.Error("BATOf(TVoid) should be TVoid")
	}
}

// TestValueLiteralRoundTrip pins the literal Value.String prints for an
// instruction's constant arguments, the EXPLAIN listing format.
func TestValueLiteralRoundTrip(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Int64(0), "0"}, {Int64(-42), "-42"}, {Int64(1 << 40), "1099511627776"},
		{Float64(3.5), "3.5"}, {Float64(-0.25), "-0.25"}, {Float64(2), "2.0"},
		{Float64(1e21), "1e+21"}, {Float64(-1.5e-7), "-1.5e-07"},
		{Str("hello"), `"hello"`}, {Str(`with "quotes" and, comma`), `"with \"quotes\" and, comma"`},
		{Str(""), `""`}, {Str("tab\tnl\n\xff"), `"tab\tnl\n\xff"`},
		{Bool(true), "true"}, {Bool(false), "false"},
		{Date(19000), "date(19000)"}, {OID(7), "7"},
		{Value{}, "nil"}, {Value{Type: TBATInt}, "<bat>"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v prints %s, want %s", c.v, got, c.want)
		}
	}
}

// TestValueLiteralQuickProperty: a float literal always carries a '.',
// an 'e' or an 'E', so a listing never shows a float as an integer.
func TestValueLiteralQuickProperty(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want string
	}{
		{0, "0.0"}, {-3, "-3.0"}, {123456, "123456.0"}, {1e6, "1e+06"}, {0.1, "0.1"},
		{math.MaxFloat64, "1.7976931348623157e+308"}, {math.SmallestNonzeroFloat64, "5e-324"},
	} {
		if got := Float64(c.f).String(); got != c.want {
			t.Errorf("Float64(%v).String() = %s, want %s", c.f, got, c.want)
		}
	}
}

func TestPruneRemovesAdminKeepsProducers(t *testing.T) {
	p := NewPlan("q")
	p.Emit0("querylog", "define", ConstOf(Str("q")))
	col := p.Emit1("sql", "bind", TBATInt, ConstOf(Str("sys")), ConstOf(Str("t")), ConstOf(Str("c")), ConstOf(Int64(0)))
	sel := p.Emit1("algebra", "select", TBATOID, VarArg(col), ConstOf(Int64(1)))
	p.Emit0("sql", "resultSet", VarArg(sel))
	p.Emit0("language", "pass", VarArg(col))

	q, remap := Prune(p)
	if err := q.Validate(); err != nil {
		t.Fatalf("pruned plan invalid: %v", err)
	}
	// querylog.define and language.pass gone; sql.resultSet consumes sel so
	// it is admin but... resultSet is admin and a *consumer*, not producer,
	// so it is pruned too. bind+select survive.
	for _, in := range q.Instrs {
		if in.Module == "querylog" || in.Name() == "language.pass" {
			t.Errorf("admin instruction survived: %s", in.Name())
		}
	}
	if len(q.Instrs) != 2 {
		t.Fatalf("pruned plan has %d instrs, want 2:\n%s", len(q.Instrs), q)
	}
	if _, ok := remap[1]; !ok {
		t.Error("remap missing pc=1 (bind)")
	}
	if _, ok := remap[0]; ok {
		t.Error("remap contains pruned pc=0")
	}
}

func TestPruneKeepsAdminProducerFeedingData(t *testing.T) {
	p := NewPlan("")
	// bat.new is classified admin, but its result feeds a data op.
	nb := p.Emit1("bat", "new", TBATInt)
	p.Emit1("algebra", "select", TBATOID, VarArg(nb), ConstOf(Int64(0)))
	q, _ := Prune(p)
	if len(q.Instrs) != 2 {
		t.Fatalf("producer was pruned; got %d instrs", len(q.Instrs))
	}
}

func TestIsAdmin(t *testing.T) {
	cases := []struct {
		mod, fn string
		want    bool
	}{
		{"language", "pass", true},
		{"querylog", "define", true},
		{"algebra", "select", false},
		{"sql", "bind", false},
		{"sql", "resultSet", true},
		{"group", "subgroup", false},
		{"profiler", "anything", true},
	}
	for _, c := range cases {
		in := &Instr{Module: c.mod, Function: c.fn}
		if got := in.IsAdmin(); got != c.want {
			t.Errorf("IsAdmin(%s.%s) = %v, want %v", c.mod, c.fn, got, c.want)
		}
	}
}

func equalInts(a, b []int) bool {
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

func containsInt(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}
