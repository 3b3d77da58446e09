package mal

import (
	"math"
	"strings"
	"testing"
)

func buildSimplePlan(t *testing.T) *Plan {
	t.Helper()
	p := NewPlan("select l_tax from lineitem where l_partkey=1")
	col := p.Emit1("sql", "bind", TBATInt, p.ConstOf(Str("sys")), p.ConstOf(Str("lineitem")), p.ConstOf(Str("l_partkey")), p.ConstOf(Int64(0)))
	sel := p.Emit1("algebra", "select", TBATOID, VarArg(col), p.ConstOf(Int64(1)), p.ConstOf(Int64(1)))
	tax := p.Emit1("sql", "bind", TBATFlt, p.ConstOf(Str("sys")), p.ConstOf(Str("lineitem")), p.ConstOf(Str("l_tax")), p.ConstOf(Int64(0)))
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
	src := p.Emit1("sql", "bind", TBATInt, p.ConstOf(Str("t")))
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
	p.Emit("sql", "bind", []int{v}, p.ConstOf(Str("a")))
	p.Emit("sql", "bind", []int{v}, p.ConstOf(Str("b")))
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
	q.Instrs[0].Op = OpOf("changed", "op")
	q.Instrs[0].Args[0] = q.ConstOf(Str("zzz"))
	q.Vars[0].Type = TStr
	q.Consts[0] = Str("yyy")
	if p.Instrs[0].Name() == "changed.op" {
		t.Error("Clone shares Instr structs")
	}
	if p.Const(p.Instrs[0].Args[0]).Str == "zzz" {
		t.Error("Clone shares Args slices")
	}
	if p.Vars[0].Type == TStr {
		t.Error("Clone shares Vars slice")
	}
	if p.Consts[0].Str == "yyy" {
		t.Error("Clone shares Consts slice")
	}
	if q.String() == p.String() {
		t.Error("edits to the clone do not show in its listing")
	}
	// The clone's operand slabs are exact: appending to one instruction's
	// operands must not overwrite the next instruction's.
	q.Instrs[0].Args = append(q.Instrs[0].Args, VarArg(0))
	if q.Instrs[1].Args[0] != VarArg(0) {
		t.Errorf("append to instruction 0 overwrote instruction 1: %v", q.Instrs[1].Args)
	}
}

// TestConstOfDedupsExactLiterals: one table entry per distinct literal,
// where distinct means type and exact payload — 0.0 and -0.0 stay apart
// and a NaN finds itself again.
func TestConstOfDedupsExactLiterals(t *testing.T) {
	p := NewPlan("")
	for _, c := range []struct {
		a, b Value
		same bool
	}{
		{Int64(3), Int64(3), true},
		{Int64(3), Value{Type: TOID, Int: 3}, false},
		{Int64(3), Date(3), false},
		{Str("3"), Str("3"), true},
		{Str("3"), Int64(3), false},
		{Float64(0), Float64(math.Copysign(0, -1)), false},
		{Float64(math.NaN()), Float64(math.NaN()), true},
		{Float64(1.5), Float64(1.5), true},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Value{Type: TBATInt, Col: 1}, Value{Type: TBATInt, Col: 1}, false},
	} {
		a, b := p.ConstOf(c.a), p.ConstOf(c.b)
		if !a.IsConst() || !b.IsConst() {
			t.Fatalf("ConstOf returned a variable operand: %d %d", a, b)
		}
		if (a == b) != c.same {
			t.Errorf("ConstOf(%v) = %d, ConstOf(%v) = %d; same = %v, want %v", c.a, a, c.b, b, a == b, c.same)
		}
		if got := p.Const(b); got.String() != c.b.String() || got.Type != c.b.Type {
			t.Errorf("Const(ConstOf(%v)) = %v", c.b, got)
		}
	}
	// A clone starts without the dedup index and rebuilds it.
	q := p.Clone()
	if q.ConstOf(Int64(3)) != p.ConstOf(Int64(3)) || len(q.Consts) != len(p.Consts) {
		t.Error("a clone's ConstOf does not find the constants it copied")
	}
}

// TestVarNameDerived: names are X_<id> and need no storage.
func TestVarNameDerived(t *testing.T) {
	p := NewPlan("")
	for i := 0; i < 12; i++ {
		p.NewVar(TInt)
	}
	for _, c := range []struct {
		id   int
		want string
	}{{0, "X_0"}, {11, "X_11"}, {12, "X_?12"}, {-1, "X_?-1"}} {
		if got := p.VarName(c.id); got != c.want {
			t.Errorf("VarName(%d) = %q, want %q", c.id, got, c.want)
		}
	}
}

// TestCachedStmtSlicesOneMemo: every statement the memo serves equals a
// fresh rendering.
func TestCachedStmtSlicesOneMemo(t *testing.T) {
	p := widePlan(100)
	before := p.Bytes()
	for _, in := range p.Instrs {
		if got, want := p.CachedStmt(in), p.StmtString(in); got != want {
			t.Fatalf("pc=%d: CachedStmt %q, StmtString %q", in.PC, got, want)
		}
	}
	if p.Bytes() <= before {
		t.Error("Bytes does not count the rendered statement memo")
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
		if got, want := BATOf(el).String(), "bat[:"+el.String()+"]"; got != want {
			t.Errorf("BATOf(%v) = %s, want %s", el, got, want)
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
		{Date(19000), "date(19000)"}, {Value{Type: TOID, Int: 7}, "7"},
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
	p.Emit0("querylog", "define", p.ConstOf(Str("q")))
	col := p.Emit1("sql", "bind", TBATInt, p.ConstOf(Str("sys")), p.ConstOf(Str("t")), p.ConstOf(Str("c")), p.ConstOf(Int64(0)))
	sel := p.Emit1("algebra", "select", TBATOID, VarArg(col), p.ConstOf(Int64(1)))
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
		if in.Module() == "querylog" || in.Name() == "language.pass" {
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
	p.Emit1("algebra", "select", TBATOID, VarArg(nb), p.ConstOf(Int64(0)))
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
		in := &Instr{Op: OpOf(c.mod, c.fn)}
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
