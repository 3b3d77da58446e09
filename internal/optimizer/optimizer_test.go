package optimizer

import (
	"strings"
	"testing"

	"stethoscope/internal/mal"
)

// buildDupPlan creates a plan with a duplicated pure computation and one
// dead instruction.
func buildDupPlan() *mal.Plan {
	p := mal.NewPlan("test")
	bind1 := p.Emit1("sql", "bind", mal.TBATInt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	bind2 := p.Emit1("sql", "bind", mal.TBATInt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	sel1 := p.Emit1("algebra", "thetaselect", mal.TBATOID,
		mal.VarArg(bind1), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(1)))
	sel2 := p.Emit1("algebra", "thetaselect", mal.TBATOID,
		mal.VarArg(bind2), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(1)))
	// dead: never used, pure
	p.Emit1("batcalc", "add", mal.TBATInt, mal.VarArg(bind1), p.ConstOf(mal.Int64(7)))
	out1 := p.Emit1("algebra", "leftjoin", mal.TBATInt, mal.VarArg(sel1), mal.VarArg(bind1))
	out2 := p.Emit1("algebra", "leftjoin", mal.TBATInt, mal.VarArg(sel2), mal.VarArg(bind2))
	rs := p.Emit1("sql", "resultSet", mal.TInt, p.ConstOf(mal.Int64(2)))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("a")), mal.VarArg(out1))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("b")), mal.VarArg(out2))
	p.Emit0("sql", "exportResult", mal.VarArg(rs))
	return p
}

func TestDeadCodeRemovesUnusedPure(t *testing.T) {
	p := buildDupPlan()
	out, st, err := Pipeline{Passes: []Pass{DeadCode{}}}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerPass["deadcode"] != 1 {
		t.Errorf("deadcode removed %d, want 1", st.PerPass["deadcode"])
	}
	for _, in := range out.Instrs {
		if in.Name() == "batcalc.add" {
			t.Error("dead batcalc.add survived")
		}
	}
	// Input untouched.
	if len(p.Instrs) != st.Before {
		t.Error("input plan was mutated")
	}
}

func TestDeadCodeKeepsSideEffects(t *testing.T) {
	p := mal.NewPlan("")
	p.Emit0("querylog", "define", p.ConstOf(mal.Str("q")))
	rs := p.Emit1("sql", "resultSet", mal.TInt, p.ConstOf(mal.Int64(0)))
	p.Emit0("sql", "exportResult", mal.VarArg(rs))
	out, _, err := Pipeline{Passes: []Pass{DeadCode{}}}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Instrs) != 3 {
		t.Errorf("side-effecting instructions removed: %d left", len(out.Instrs))
	}
}

func TestCSEDeduplicatesChains(t *testing.T) {
	p := buildDupPlan()
	out, st, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// bind2 and sel2 fold into bind1/sel1; leftjoins then become
	// identical too, so one of them folds as well.
	binds, sels, ljs := 0, 0, 0
	for _, in := range out.Instrs {
		switch in.Name() {
		case "sql.bind":
			binds++
		case "algebra.thetaselect":
			sels++
		case "algebra.leftjoin":
			ljs++
		}
	}
	if binds != 1 || sels != 1 || ljs != 1 {
		t.Errorf("after CSE: binds=%d sels=%d leftjoins=%d, want 1/1/1\n%s", binds, sels, ljs, out)
	}
	if st.After >= st.Before {
		t.Errorf("stats: %d -> %d", st.Before, st.After)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both result columns still reference a live variable.
	for _, in := range out.Instrs {
		if in.Name() == "sql.rsColumn" {
			if in.Args[2].IsConst() {
				t.Error("rsColumn lost its column variable")
			}
		}
	}
}

func TestCSEDoesNotMergeDifferentConstants(t *testing.T) {
	p := mal.NewPlan("")
	bind := p.Emit1("sql", "bind", mal.TBATInt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	a := p.Emit1("algebra", "thetaselect", mal.TBATOID, mal.VarArg(bind), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(1)))
	b := p.Emit1("algebra", "thetaselect", mal.TBATOID, mal.VarArg(bind), p.ConstOf(mal.Str("=")), p.ConstOf(mal.Int64(2)))
	rs := p.Emit1("sql", "resultSet", mal.TInt, p.ConstOf(mal.Int64(2)))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("a")), mal.VarArg(a))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("b")), mal.VarArg(b))
	out, _, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	sels := 0
	for _, in := range out.Instrs {
		if in.Name() == "algebra.thetaselect" {
			sels++
		}
	}
	if sels != 2 {
		t.Errorf("distinct selections merged: %d", sels)
	}
}

func TestCSETypeTaggedConstants(t *testing.T) {
	// int 1 and oid 1 print identically; the CSE key must distinguish
	// them by type.
	p := mal.NewPlan("")
	bind := p.Emit1("sql", "bind", mal.TBATInt,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	a := p.Emit1("batcalc", "add", mal.TBATInt, mal.VarArg(bind), p.ConstOf(mal.Int64(1)))
	b := p.Emit1("batcalc", "add", mal.TBATInt, mal.VarArg(bind), p.ConstOf(mal.OID(1)))
	rs := p.Emit1("sql", "resultSet", mal.TInt, p.ConstOf(mal.Int64(2)))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("a")), mal.VarArg(a))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("b")), mal.VarArg(b))
	out, _, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, in := range out.Instrs {
		if in.Name() == "batcalc.add" {
			adds++
		}
	}
	if adds != 2 {
		t.Errorf("type-distinct constants merged: adds=%d", adds)
	}
}

func TestCSEMultiReturn(t *testing.T) {
	p := mal.NewPlan("")
	bind := p.Emit1("sql", "bind", mal.TBATStr,
		p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	g1 := p.NewVar(mal.TBATOID)
	e1 := p.NewVar(mal.TBATOID)
	p.Emit("group", "subgroup", []int{g1, e1}, mal.VarArg(bind))
	g2 := p.NewVar(mal.TBATOID)
	e2 := p.NewVar(mal.TBATOID)
	p.Emit("group", "subgroup", []int{g2, e2}, mal.VarArg(bind))
	s1 := p.Emit1("aggr", "subcount", mal.TBATInt, mal.VarArg(g1), mal.VarArg(e1))
	s2 := p.Emit1("aggr", "subcount", mal.TBATInt, mal.VarArg(g2), mal.VarArg(e2))
	rs := p.Emit1("sql", "resultSet", mal.TInt, p.ConstOf(mal.Int64(2)))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("a")), mal.VarArg(s1))
	p.Emit0("sql", "rsColumn", mal.VarArg(rs), p.ConstOf(mal.Str("b")), mal.VarArg(s2))
	out, _, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	groups, counts := 0, 0
	for _, in := range out.Instrs {
		switch in.Name() {
		case "group.subgroup":
			groups++
		case "aggr.subcount":
			counts++
		}
	}
	if groups != 1 || counts != 1 {
		t.Errorf("multi-return CSE: groups=%d counts=%d, want 1/1\n%s", groups, counts, out)
	}
}

func TestStatsString(t *testing.T) {
	p := buildDupPlan()
	_, st, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	s := st.String()
	if !strings.Contains(s, "->") {
		t.Errorf("stats string = %q", s)
	}
}

func TestPipelineEmptyPlan(t *testing.T) {
	p := mal.NewPlan("")
	out, st, err := Default().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Instrs) != 0 || st.Before != 0 || st.After != 0 {
		t.Error("empty plan should pass through")
	}
}
