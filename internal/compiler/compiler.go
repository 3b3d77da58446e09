// Package compiler lowers a bound relational-algebra tree to a MAL plan,
// the representation Stethoscope visualizes. Code generation follows
// MonetDB's column-at-a-time style: every relational operator expands into
// per-column MAL instructions (sql.bind, algebra.select, algebra.leftjoin,
// group.subgroup, aggr.sub*, ...), so even modest queries produce the rich
// dataflow DAGs the paper's figures show.
//
// The Partitions option implements mitosis + mergetable: scans are split
// into horizontal slices (mat.slice) and the operators above them —
// filters, projections, aggregations, group-bys, distinct, join probes,
// sorts — run once per slice, reassembling (mat.pack) only where an
// operator genuinely needs the whole relation (the build side of a
// join, limits, the result set). Partial results recombine
// mergetable-style: partial sums and counts are summed, partial
// minima/maxima re-minimized (skipping empty slices), per-slice group
// representatives are regrouped, per-slice join-probe outputs
// concatenate in slice order, per-slice sorted runs merge through the
// stable mat.kmerge kernel (with ORDER BY ... LIMIT truncating each run
// to the limit first). MonetDB performs this as a MAL optimizer; we
// perform it at lowering time, which yields the same plan shape — wide
// independent slices that the engine's dataflow scheduler runs on
// multiple cores (experiments F2 and E7). The Morsel option fans the
// same operators out inside a fragment instead.
//
// Every fan-out operator is written once, as a body over one piece of a
// relation; mapPieces runs that body in place over a packed relation,
// once per slice over a partitioned one and once inside the fragment of
// a morsel one, and packed is the one gather (DESIGN.md, "Compilation
// contract"). Fan-outs always have at least two pieces (a scan is only
// marked sliceable when Partitions > 1), and a projection of bare
// columns leaves a scan unsliced (lowerProject), so the lowering emits
// no pack that merely reassembles untouched slices.
package compiler

import (
	"fmt"

	"stethoscope/internal/algebra"
	"stethoscope/internal/mal"
	"stethoscope/internal/storage"
)

// Options controls code generation.
type Options struct {
	// Partitions is the mitosis fan-out; values <= 1 disable partitioning.
	Partitions int
	// Morsel selects morsel-driven lowering: instead of static mitosis
	// slices, the operator chain above each scan is compiled into a
	// fragment (mal.Fragment) that a single mat.morsel instruction runs
	// morsel-at-a-time — workers pull fixed-size row ranges from a
	// shared cursor and run the whole filter/project/probe/partial-agg
	// chain per morsel, so intermediates stay bounded by
	// workers × morsel rows. The combine stages (mergetable
	// recombination, k-way sort merge) are the same ones the static
	// path uses; sorts in particular close the fragment and reuse the
	// static slice/sort/kmerge lowering unchanged. DB.Stream is the only
	// entry point that lowers this way.
	Morsel bool
}

// Compile lowers the tree to MAL. queryText is carried on the plan for
// display (the paper shows it as a header comment on the listing).
func Compile(tree algebra.Node, queryText string, opt Options) (*mal.Plan, error) {
	if opt.Partitions < 1 {
		opt.Partitions = 1
	}
	c := &compiler{plan: mal.NewPlan(queryText), opt: opt}
	c.prologue(queryText)
	r, err := c.lower(tree)
	if err != nil {
		return nil, err
	}
	c.epilogue(c.packed(r))
	c.plan.Renumber()
	if err := c.plan.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: generated invalid plan: %w", err)
	}
	return c.plan, nil
}

// rel is an intermediate relation in one of three forms. Packed: one
// aligned MAL BAT variable per schema column (cols). Partitioned (the
// mitosis form): parts[p][i] holds column i of horizontal slice p; the
// slices concatenated in order are the relation. Morsel: cols are
// variables of an open fragment's own plan (frag), and the relation's
// rows are whatever the fragment computes per morsel, concatenated in
// morsel order. The two fan-out forms start lazily: a scan keeps its
// bound columns in cols and is only marked sliceable or morselable, so
// the first operator that works piece-wise (mapPieces) materializes the
// mat.slice instructions or opens the fragment, while a consumer that
// needs the whole relation (packed) takes the bound columns as-is and
// scans nothing exploits never pay a slice/pack chain. A rel with a nil
// schema is a bundle of aligned columns (partial aggregates) on its way
// to packed.
type rel struct {
	schema algebra.Schema
	cols   []int
	parts  [][]int
	// sliceable marks cols as a scan eligible for deferred mitosis
	// slicing into opt.Partitions pieces; lowerScan and the sort
	// lowering set it only when Partitions > 1, so every fan-out has at
	// least two pieces.
	sliceable bool
	// morselable marks cols as a scan eligible for deferred morsel
	// lowering (the morsel-mode analogue of sliceable).
	morselable bool
	// frag, when non-nil, is the open fragment cols live in.
	frag *fragBuild
}

func (r rel) partitioned() bool { return r.parts != nil || r.sliceable }

// morselish reports the morsel form (open fragment or a scan eligible
// to open one).
func (r rel) morselish() bool { return r.frag != nil || r.morselable }

// fanned reports either fan-out form: the relation is (or is about to
// be) a sequence of pieces rather than one set of packed columns.
func (r rel) fanned() bool { return r.partitioned() || r.morselish() }

// part views one slice of a partitioned rel as a packed rel.
func (r rel) part(p int) rel { return rel{schema: r.schema, cols: r.parts[p]} }

// mapPieces is the one way an operator runs piece-wise: it runs body —
// a row-local lowering that emits into c.plan and returns its output
// columns — over every piece of in and returns the outputs in in's
// form under the given schema. A packed rel is its own single piece and
// body runs once in place. A partitioned (or sliceable) rel is forced —
// the mat.slice instructions are emitted now — and body runs once per
// slice, in slice order. A morsel (or morselable) rel is forced — the
// fragment is opened over the bound columns — and body runs once with
// c.plan swapped to the fragment's plan, so every lowering helper
// (applyFilter, exprVars, subgroupChain, ...) works unchanged inside
// fragments. A piece reaches values of the outer plan through
// importVar. Gathering the pieces back is packed's job, not this one's.
func (c *compiler) mapPieces(in rel, schema algebra.Schema, body func(piece rel) ([]int, error)) (rel, error) {
	out := rel{schema: schema}
	var err error
	switch {
	case in.morselish():
		if in.frag == nil {
			in = c.openFrag(in)
		}
		out.frag = in.frag
		c.plan = in.frag.f.Plan
		out.cols, err = body(in)
		c.plan = in.frag.outer
	case in.partitioned():
		in = c.forcePartitioned(in)
		out.parts = make([][]int, len(in.parts))
		for p := range in.parts {
			if out.parts[p], err = body(in.part(p)); err != nil {
				break
			}
		}
	default:
		out.cols, err = body(in)
	}
	return out, err
}

// importVar makes a value of the outer plan (a hash table, a packed
// build column) usable inside piece. Slices and packed relations live
// in the outer plan, so the value is used as it is; a fragment receives
// it as a capture (a Cap of the fragment, fed by the mat.morsel
// instruction), deduplicated so a value used by several operators rides
// in once.
func (c *compiler) importVar(piece rel, outer int) int {
	fb := piece.frag
	if fb == nil {
		return outer
	}
	if fv, ok := fb.capIdx[outer]; ok {
		return fv
	}
	fv := fb.f.Plan.NewVar(fb.outer.VarType(outer))
	fb.f.Caps = append(fb.f.Caps, fv)
	fb.caps = append(fb.caps, outer)
	fb.capIdx[outer] = fv
	return fv
}

// forcePartitioned materializes the mitosis form: a lazily-sliceable
// scan emits its mat.slice instructions now; an already-partitioned
// rel passes through.
func (c *compiler) forcePartitioned(r rel) rel {
	if !r.sliceable {
		return r
	}
	k := c.opt.Partitions
	out := rel{schema: r.schema, parts: make([][]int, k)}
	for p := 0; p < k; p++ {
		for _, v := range r.cols {
			sv := c.plan.Emit1("mat", "slice", c.plan.VarType(v),
				mal.VarArg(v), c.plan.ConstOf(mal.Int64(int64(p))), c.plan.ConstOf(mal.Int64(int64(k))))
			out.parts[p] = append(out.parts[p], sv)
		}
	}
	return out
}

// packed is the one gather: a partitioned rel reassembles with one
// mat.pack per column (mergetable), an open fragment closes into its
// mat.morsel instruction. A lazily-sliceable or morselable scan is
// already whole — its bound columns are returned directly, with no
// instructions emitted — and packed input passes through untouched.
func (c *compiler) packed(r rel) rel {
	out := rel{schema: r.schema}
	switch {
	case r.frag != nil:
		out.cols = c.closeFrag(r.frag, r.cols)
	case r.parts == nil:
		out.cols = r.cols
	default:
		for i, v := range r.parts[0] {
			args := make([]mal.Arg, len(r.parts))
			for p := range r.parts {
				args[p] = mal.VarArg(r.parts[p][i])
			}
			out.cols = append(out.cols, c.plan.Emit1("mat", "pack", c.plan.VarType(v), args...))
		}
	}
	return out
}

type compiler struct {
	plan *mal.Plan
	opt  Options
}

// fragBuild accumulates one morsel fragment while operators lower into
// it: f is the fragment under construction, outer the plan that will
// carry its mat.morsel instruction, srcs/caps the OUTER plan variables
// feeding its Params/Caps (in order), capIdx the capture dedup index.
type fragBuild struct {
	f      *mal.Fragment
	outer  *mal.Plan
	srcs   []int
	caps   []int
	capIdx map[int]int
}

// openFrag opens a fragment over a morselable scan: one fragment
// parameter per bound column, typed like the outer variable.
func (c *compiler) openFrag(r rel) rel {
	fb := &fragBuild{f: &mal.Fragment{Plan: mal.NewPlan("")}, outer: c.plan, capIdx: map[int]int{}}
	out := rel{schema: r.schema, frag: fb}
	for _, v := range r.cols {
		fv := fb.f.Plan.NewVar(c.plan.VarType(v))
		fb.f.Params = append(fb.f.Params, fv)
		fb.srcs = append(fb.srcs, v)
		out.cols = append(out.cols, fv)
	}
	return out
}

// closeFrag registers the fragment with outs as its per-morsel exports
// and emits the outer mat.morsel instruction:
//
//	rets := mat.morsel(fragID, nSrc, nCap, src..., cap...)
//
// returning one outer variable per export, holding the exports packed
// across morsels in morsel order. A fragment can be closed only once.
func (c *compiler) closeFrag(fb *fragBuild, outs []int) []int {
	fb.f.Outs = append([]int(nil), outs...)
	id := len(c.plan.Frags)
	c.plan.Frags = append(c.plan.Frags, fb.f)
	args := []mal.Arg{
		c.plan.ConstOf(mal.Int64(int64(id))),
		c.plan.ConstOf(mal.Int64(int64(len(fb.srcs)))),
		c.plan.ConstOf(mal.Int64(int64(len(fb.caps)))),
	}
	for _, v := range fb.srcs {
		args = append(args, mal.VarArg(v))
	}
	for _, v := range fb.caps {
		args = append(args, mal.VarArg(v))
	}
	rets := make([]int, len(outs))
	for i, fv := range outs {
		rets[i] = c.plan.NewVar(fb.f.Plan.VarType(fv))
	}
	c.plan.Emit("mat", "morsel", rets, args...)
	return rets
}

// operand is a compiled scalar-or-column expression: either a MAL
// variable holding a BAT or an inline constant.
type operand struct {
	varID int // -1 when constant
	cnst  mal.Value
	kind  storage.Kind
}

func (o operand) isConst() bool { return o.varID < 0 }

// arg returns the operand of o in the plan under construction.
func (c *compiler) arg(o operand) mal.Arg {
	if o.isConst() {
		return c.plan.ConstOf(o.cnst)
	}
	return mal.VarArg(o.varID)
}

func kindToMAL(k storage.Kind) mal.Type {
	switch k {
	case storage.Int:
		return mal.TInt
	case storage.Flt:
		return mal.TFlt
	case storage.Str:
		return mal.TStr
	case storage.Bool:
		return mal.TBool
	case storage.Date:
		return mal.TDate
	default:
		return mal.TOID
	}
}

func kindToBAT(k storage.Kind) mal.Type { return mal.BATOf(kindToMAL(k)) }

func constValue(c *algebra.Const) mal.Value {
	switch c.K {
	case storage.Flt:
		return mal.Float64(c.F)
	case storage.Str:
		return mal.Str(c.S)
	case storage.Bool:
		return mal.Bool(c.B)
	case storage.Date:
		return mal.Date(c.I)
	default:
		return mal.Int64(c.I)
	}
}

func (c *compiler) prologue(queryText string) {
	c.plan.Emit0("querylog", "define", c.plan.ConstOf(mal.Str(queryText)))
	c.plan.Emit1("sql", "mvc", mal.TInt)
}

func (c *compiler) epilogue(r rel) {
	rs := c.plan.Emit1("sql", "resultSet", mal.TInt, c.plan.ConstOf(mal.Int64(int64(len(r.cols)))))
	for i, v := range r.cols {
		c.plan.Emit0("sql", "rsColumn",
			mal.VarArg(rs),
			c.plan.ConstOf(mal.Str(r.schema[i].Name)),
			mal.VarArg(v))
	}
	c.plan.Emit0("sql", "exportResult", mal.VarArg(rs))
}

func (c *compiler) lower(n algebra.Node) (rel, error) {
	switch t := n.(type) {
	case *algebra.Scan:
		return c.lowerScan(t), nil
	case *algebra.Filter:
		return c.lowerFilter(t)
	case *algebra.Join:
		return c.lowerJoin(t)
	case *algebra.GroupAgg:
		return c.lowerGroupAgg(t)
	case *algebra.Project:
		return c.lowerProject(t)
	case *algebra.Distinct:
		return c.lowerDistinct(t)
	case *algebra.Sort:
		return c.lowerSort(t)
	case *algebra.Limit:
		return c.lowerLimit(t)
	}
	return rel{}, fmt.Errorf("compiler: unsupported node %T", n)
}

func (c *compiler) bindScan(s *algebra.Scan) rel {
	r := rel{schema: s.Out}
	for _, col := range s.Out {
		v := c.plan.Emit1("sql", "bind", kindToBAT(col.Kind),
			c.plan.ConstOf(mal.Str(s.SchemaName)),
			c.plan.ConstOf(mal.Str(s.Table)),
			c.plan.ConstOf(mal.Str(col.Name)),
			c.plan.ConstOf(mal.Int64(0)))
		r.cols = append(r.cols, v)
	}
	return r
}

// lowerScan binds the table columns and, with partitioning enabled,
// marks them sliceable: the first downstream operator that works
// partition-wise (filters, projections, aggregates, join probes,
// sorts) materializes the mitosis slices and runs once per slice until
// something forces a pack, while consumers that need the whole
// relation (a join's build side, plain limits, the result epilogue)
// take the bound columns directly with no mitosis overhead at all.
func (c *compiler) lowerScan(s *algebra.Scan) rel {
	base := c.bindScan(s)
	if c.opt.Morsel {
		base.morselable = true
		return base
	}
	if c.opt.Partitions <= 1 {
		return base
	}
	base.sliceable = true
	return base
}

// lowerFilter filters every piece of its input independently: selection
// is row-local, so the relation keeps its form.
func (c *compiler) lowerFilter(f *algebra.Filter) (rel, error) {
	in, err := c.lower(f.Input)
	if err != nil {
		return rel{}, err
	}
	return c.mapPieces(in, in.schema, func(piece rel) ([]int, error) {
		return c.applyFilter(piece, f.Pred)
	})
}

// applyFilter narrows in to the rows satisfying pred and re-materializes
// every column through the resulting candidate list.
func (c *compiler) applyFilter(in rel, pred algebra.Expr) ([]int, error) {
	cands, err := c.candidates(in, pred)
	if err != nil {
		return nil, err
	}
	return c.projectAll(in, cands).cols, nil
}

// projectAll gathers all columns of in through the candidate list.
func (c *compiler) projectAll(in rel, cands int) rel {
	out := rel{schema: in.schema}
	for i, v := range in.cols {
		p := c.plan.Emit1("algebra", "leftjoin", kindToBAT(in.schema[i].Kind),
			mal.VarArg(cands), mal.VarArg(v))
		out.cols = append(out.cols, p)
	}
	return out
}

// candidates compiles pred into an oid candidate list over in. Simple
// conjunctions of single-column comparisons chain algebra.thetaselect /
// algebra.select with shrinking candidate lists (MonetDB's fast path);
// anything else falls back to elementwise boolean evaluation plus
// algebra.selectTrue.
func (c *compiler) candidates(in rel, pred algebra.Expr) (int, error) {
	conj := splitAnd(pred)
	if allSimple(conj) {
		cands := -1
		for _, p := range conj {
			next, err := c.simpleSelect(in, p, cands)
			if err != nil {
				return 0, err
			}
			cands = next
		}
		return cands, nil
	}
	boolVar, err := c.boolExpr(in, pred)
	if err != nil {
		return 0, err
	}
	return c.plan.Emit1("algebra", "selectTrue", mal.TBATOID, mal.VarArg(boolVar)), nil
}

// splitAnd flattens a conjunction.
func splitAnd(e algebra.Expr) []algebra.Expr {
	if b, ok := e.(*algebra.Bin); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []algebra.Expr{e}
}

// simple predicates: ColIdx cmp Const, Const cmp ColIdx, or
// Between(ColIdx, Const, Const).
func isSimple(e algebra.Expr) bool {
	switch t := e.(type) {
	case *algebra.Bin:
		switch t.Op {
		case "=", "!=", "<", "<=", ">", ">=":
		default:
			return false
		}
		if _, ok := t.L.(*algebra.ColIdx); ok {
			_, cok := t.R.(*algebra.Const)
			return cok
		}
		if _, ok := t.R.(*algebra.ColIdx); ok {
			_, cok := t.L.(*algebra.Const)
			return cok
		}
		return false
	case *algebra.Between:
		if _, ok := t.E.(*algebra.ColIdx); !ok {
			return false
		}
		_, lok := t.Lo.(*algebra.Const)
		_, hok := t.Hi.(*algebra.Const)
		return lok && hok
	}
	return false
}

func allSimple(conj []algebra.Expr) bool {
	for _, p := range conj {
		if !isSimple(p) {
			return false
		}
	}
	return true
}

var flipOp = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// simpleSelect emits a theta/range selection for one simple predicate,
// refining cands (-1 means "all rows").
func (c *compiler) simpleSelect(in rel, p algebra.Expr, cands int) (int, error) {
	switch t := p.(type) {
	case *algebra.Bin:
		col, ok := t.L.(*algebra.ColIdx)
		cst, _ := t.R.(*algebra.Const)
		op := t.Op
		if !ok {
			col = t.R.(*algebra.ColIdx)
			cst = t.L.(*algebra.Const)
			op = flipOp[op]
		}
		args := []mal.Arg{mal.VarArg(in.cols[col.Idx])}
		if cands >= 0 {
			args = append(args, mal.VarArg(cands))
		}
		args = append(args, c.plan.ConstOf(mal.Str(op)), c.plan.ConstOf(constValue(cst)))
		return c.plan.Emit1("algebra", "thetaselect", mal.TBATOID, args...), nil
	case *algebra.Between:
		col := t.E.(*algebra.ColIdx)
		lo := t.Lo.(*algebra.Const)
		hi := t.Hi.(*algebra.Const)
		args := []mal.Arg{mal.VarArg(in.cols[col.Idx])}
		if cands >= 0 {
			args = append(args, mal.VarArg(cands))
		}
		args = append(args,
			c.plan.ConstOf(constValue(lo)), c.plan.ConstOf(constValue(hi)),
			c.plan.ConstOf(mal.Bool(true)), c.plan.ConstOf(mal.Bool(true)))
		return c.plan.Emit1("algebra", "select", mal.TBATOID, args...), nil
	}
	return 0, fmt.Errorf("compiler: not a simple predicate: %s", p)
}

// boolExpr evaluates pred elementwise into a bat[:bit] column.
func (c *compiler) boolExpr(in rel, pred algebra.Expr) (int, error) {
	op, err := c.expr(in, pred)
	if err != nil {
		return 0, err
	}
	if op.isConst() {
		return 0, fmt.Errorf("compiler: constant predicate %s not supported as filter", pred)
	}
	if op.kind != storage.Bool {
		return 0, fmt.Errorf("compiler: predicate of kind %s", op.kind)
	}
	return op.varID, nil
}

var cmpFunc = map[string]string{"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
var arithFunc = map[string]string{"+": "add", "-": "sub", "*": "mul", "/": "div"}

// expr compiles a scalar expression over the aligned columns of in into
// batcalc instructions, constant-folding pure-constant subtrees.
func (c *compiler) expr(in rel, e algebra.Expr) (operand, error) {
	switch t := e.(type) {
	case *algebra.ColIdx:
		return operand{varID: in.cols[t.Idx], kind: t.Col.Kind}, nil
	case *algebra.Const:
		return operand{varID: -1, cnst: constValue(t), kind: t.K}, nil
	case *algebra.Not:
		inner, err := c.expr(in, t.E)
		if err != nil {
			return operand{}, err
		}
		if inner.isConst() {
			return foldConst("not", inner, operand{}, storage.Bool)
		}
		v := c.plan.Emit1("batcalc", "not", mal.TBATBool, mal.VarArg(inner.varID))
		return operand{varID: v, kind: storage.Bool}, nil
	case *algebra.Between:
		col, err := c.expr(in, t.E)
		if err != nil {
			return operand{}, err
		}
		lo, err := c.expr(in, t.Lo)
		if err != nil {
			return operand{}, err
		}
		hi, err := c.expr(in, t.Hi)
		if err != nil {
			return operand{}, err
		}
		v := c.plan.Emit1("batcalc", "between", mal.TBATBool, c.arg(col), c.arg(lo), c.arg(hi))
		return operand{varID: v, kind: storage.Bool}, nil
	case *algebra.Like:
		inner, err := c.expr(in, t.E)
		if err != nil {
			return operand{}, err
		}
		if inner.isConst() {
			return operand{}, fmt.Errorf("compiler: like over a constant")
		}
		v := c.plan.Emit1("batcalc", "like", mal.TBATBool,
			mal.VarArg(inner.varID), c.plan.ConstOf(mal.Str(t.Pattern)))
		return operand{varID: v, kind: storage.Bool}, nil
	case *algebra.Bin:
		l, err := c.expr(in, t.L)
		if err != nil {
			return operand{}, err
		}
		r, err := c.expr(in, t.R)
		if err != nil {
			return operand{}, err
		}
		if l.isConst() && r.isConst() {
			folded, err := foldConst(t.Op, l, r, t.K)
			if err != nil {
				return operand{}, err
			}
			return folded, nil
		}
		var fn string
		switch t.Op {
		case "+", "-", "*", "/":
			fn = arithFunc[t.Op]
		case "=", "!=", "<", "<=", ">", ">=":
			fn = cmpFunc[t.Op]
		case "and", "or":
			fn = t.Op
		default:
			return operand{}, fmt.Errorf("compiler: unknown operator %q", t.Op)
		}
		v := c.plan.Emit1("batcalc", fn, kindToBAT(t.K), c.arg(l), c.arg(r))
		return operand{varID: v, kind: t.K}, nil
	}
	return operand{}, fmt.Errorf("compiler: cannot compile expression %T", e)
}

// foldArith and foldCmp name the storage kernels a constant-constant
// operator folds through.
var foldArith = map[string]storage.ArithOp{"+": storage.Add, "-": storage.Sub, "*": storage.Mul, "/": storage.Div}
var foldCmp = map[string]storage.CmpOp{"=": storage.EQ, "!=": storage.NE, "<": storage.LT, "<=": storage.LE, ">": storage.GT, ">=": storage.GE}

// foldConst evaluates a constant-constant operation ("not" ignores r) at
// compile time with the kernels the engine runs, over one-row columns,
// so a folded constant is the value execution would compute. k is the
// binder's kind for the result.
func foldConst(op string, l, r operand, k storage.Kind) (operand, error) {
	var out *storage.BAT
	var err error
	switch op {
	case "+", "-", "*", "/":
		out, err = storage.ArithScalar(foldArith[op], constBAT(l), constVal(r), false)
	case "=", "!=", "<", "<=", ">", ">=":
		out, err = storage.CompareScalar(foldCmp[op], constBAT(l), constVal(r), false)
	case "and", "or":
		out, err = storage.BoolCombine(op == "and", constBAT(l), constBAT(r))
	case "not":
		out, err = storage.BoolNot(constBAT(l))
	default:
		return operand{}, fmt.Errorf("compiler: cannot fold %q", op)
	}
	if err != nil {
		return operand{}, fmt.Errorf("compiler: folding %q: %w", op, err)
	}
	var v mal.Value
	switch k {
	case storage.Bool:
		v = mal.Bool(out.BoolAt(0))
	case storage.Flt:
		v = mal.Float64(out.FltAt(0))
	case storage.Date:
		v = mal.Date(out.IntAt(0))
	default:
		v = mal.Int64(out.IntAt(0))
	}
	return operand{varID: -1, cnst: v, kind: k}, nil
}

// constBAT is a constant operand as a one-row column.
func constBAT(o operand) *storage.BAT {
	switch o.kind {
	case storage.Flt:
		return storage.FromFloats([]float64{o.cnst.Flt})
	case storage.Str:
		return storage.FromStrings([]string{o.cnst.Str})
	case storage.Bool:
		return storage.FromBools([]bool{o.cnst.Bool})
	}
	return storage.FromInts(o.kind, []int64{o.cnst.Int})
}

// constVal is a constant operand as a kernel's scalar operand.
func constVal(o operand) storage.Val {
	return storage.Val{Kind: o.kind, I: o.cnst.Int, F: o.cnst.Flt, S: o.cnst.Str, B: o.cnst.Bool}
}

// lowerJoin compiles the equi-join. The build side (right input, the
// hashed one) is always packed — one hash table per join. When the
// probe side (left input) is fanned out, the join itself fans out:
// algebra.hashbuild indexes the build key once in the outer plan, and
// every probe piece imports the hash table and the packed build columns
// and runs its own algebra.hashprobe + projections, so the probe phase
// — where TPC-H-shaped plans spend their join time — spreads across the
// dataflow workers or the morsel loop. Probe oids are piece-local, so
// left columns project from the piece's own columns while build-side
// oids project from the packed build columns. The per-piece outputs
// concatenated in piece order equal the packed join's probe-order
// output exactly, so the result keeps the probe side's form and
// downstream operators (filters, aggregates, further joins) keep
// consuming it piece-wise. A packed probe side is a single piece and
// takes the one-shot algebra.join kernel instead of the build/probe
// pair.
func (c *compiler) lowerJoin(j *algebra.Join) (rel, error) {
	l, err := c.lower(j.L)
	if err != nil {
		return rel{}, err
	}
	r, err := c.lower(j.R)
	if err != nil {
		return rel{}, err
	}
	r = c.packed(r)
	hash := -1
	if l.fanned() {
		l = c.forcePartitioned(l) // slices, when still pending, precede the build
		hash = c.plan.Emit1("algebra", "hashbuild", mal.THash, mal.VarArg(r.cols[j.RKey]))
	}
	return c.mapPieces(l, j.Schema(), func(lp rel) ([]int, error) {
		build := rel{schema: r.schema, cols: make([]int, len(r.cols))}
		hv := c.importVar(lp, hash) // still -1 for a packed probe side
		for i, v := range r.cols {
			build.cols[i] = c.importVar(lp, v)
		}
		lo := c.plan.NewVar(mal.TBATOID)
		ro := c.plan.NewVar(mal.TBATOID)
		if hash < 0 {
			c.plan.Emit("algebra", "join", []int{lo, ro},
				mal.VarArg(lp.cols[j.LKey]), mal.VarArg(build.cols[j.RKey]))
		} else {
			c.plan.Emit("algebra", "hashprobe", []int{lo, ro},
				mal.VarArg(lp.cols[j.LKey]), mal.VarArg(hv))
		}
		return append(c.projectAll(lp, lo).cols, c.projectAll(build, ro).cols...), nil
	})
}

var aggrFunc = map[storage.AggrKind]string{
	storage.AggrSum:   "sum",
	storage.AggrCount: "count",
	storage.AggrMin:   "min",
	storage.AggrMax:   "max",
	storage.AggrAvg:   "avg",
}

// mergeable reports whether every aggregate of the list decomposes into
// per-piece partials plus a recombination step: sum and count partials
// are summed, min/max partials re-minimized. Avg does not decompose
// losslessly in this instruction set (sum/count division would change
// the output type for integer columns), so its presence routes the
// aggregation through the packed path.
func mergeable(aggs []algebra.AggSpec) bool {
	for _, a := range aggs {
		if !a.CountStar && a.Func == storage.AggrAvg {
			return false
		}
	}
	return true
}

// guarded reports the aggregates whose global partials need a row count
// beside them: the min or max of an empty piece is a zero-valued
// placeholder that must not take part in the recombination.
func guarded(a algebra.AggSpec) bool {
	return !a.CountStar && (a.Func == storage.AggrMin || a.Func == storage.AggrMax)
}

// lowerGroupAgg is the mergetable aggregation: a fanned-out input is
// pre-aggregated piece by piece (aggregatePiece), the per-piece partials
// are gathered (one mat.pack per partial column, or the fragment's
// mat.morsel) and a combine stage recomputes the final aggregates over
// the (tiny) packed partials (combinePartials). The merged grouping
// preserves the sequential plan's first-appearance group order, so
// counts, min/max, integral sums and key columns are byte-identical to
// the unpartitioned lowering; float sums re-associate the additions
// (one partial sum per piece) and may differ in the last bits, as
// MonetDB's mitosis does. A packed input, or an aggregate list that
// does not decompose, aggregates the packed relation in one step.
func (c *compiler) lowerGroupAgg(g *algebra.GroupAgg) (rel, error) {
	in, err := c.lower(g.Input)
	if err != nil {
		return rel{}, err
	}
	if !in.fanned() || !mergeable(g.Aggs) {
		cols, err := c.aggregatePiece(g, c.packed(in), false)
		return rel{schema: g.Schema(), cols: cols}, err
	}
	partials, err := c.mapPieces(in, nil, func(piece rel) ([]int, error) {
		return c.aggregatePiece(g, piece, true)
	})
	if err != nil {
		return rel{}, err
	}
	return rel{schema: g.Schema(), cols: c.combinePartials(g, c.packed(partials).cols)}, nil
}

// aggregatePiece aggregates one piece. Grouped: local grouping, one
// representative row per local group for every key, one aggregate per
// local group. Global: one one-row aggregate each; partial asks for the
// row count that guards min/max against empty pieces, emitted right
// after the aggregate it guards. Over a packed relation the outputs are
// the final columns; over a piece they are the partials combinePartials
// consumes, in the same order.
func (c *compiler) aggregatePiece(g *algebra.GroupAgg, in rel, partial bool) ([]int, error) {
	var cols []int
	if len(g.Keys) == 0 {
		for _, a := range g.Aggs {
			if a.CountStar {
				cols = append(cols, c.plan.Emit1("aggr", "count", mal.TBATInt, mal.VarArg(in.cols[0])))
				continue
			}
			av, err := c.exprVar(in, a.Arg)
			if err != nil {
				return nil, err
			}
			cols = append(cols, c.plan.Emit1("aggr", aggrFunc[a.Func], kindToBAT(a.K), mal.VarArg(av)))
			if partial && guarded(a) {
				cols = append(cols, c.plan.Emit1("aggr", "count", mal.TBATInt, mal.VarArg(av)))
			}
		}
		return cols, nil
	}
	kvs, err := c.exprVars(in, g.Keys)
	if err != nil {
		return nil, err
	}
	groups, extents := c.subgroupChain(kvs)
	// Key output columns: representative rows via extents (the output
	// schema starts with the keys).
	cols = c.projectAll(rel{schema: g.Schema(), cols: kvs}, extents).cols
	for _, a := range g.Aggs {
		if a.CountStar {
			cols = append(cols, c.plan.Emit1("aggr", "subcount", mal.TBATInt,
				mal.VarArg(groups), mal.VarArg(extents)))
			continue
		}
		av, err := c.exprVar(in, a.Arg)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c.plan.Emit1("aggr", "sub"+aggrFunc[a.Func], kindToBAT(a.K),
			mal.VarArg(av), mal.VarArg(groups), mal.VarArg(extents)))
	}
	return cols, nil
}

// combinePartials is the mergetable recombination stage over the packed
// partials of aggregatePiece, whatever produced the pieces. Grouped:
// regroup the packed per-piece group representatives (first appearance
// over the packed order equals first appearance over the full relation)
// and recombine the packed partials under the merged grouping. Global:
// recombine each packed partial column into its one-row result. Either
// way partial counts and sums are summed and partial minima/maxima
// re-minimized, the global ones over the live partials only — the
// pieces whose row count is positive (thetaselect > 0).
func (c *compiler) combinePartials(g *algebra.GroupAgg, partials []int) []int {
	keys, rest := partials[:len(g.Keys)], partials[len(g.Keys):]
	groups, extents := c.subgroupChain(keys)
	cols := c.projectAll(rel{schema: g.Schema(), cols: keys}, extents).cols
	for _, a := range g.Aggs {
		pv := rest[0]
		rest = rest[1:]
		fn := aggrFunc[a.Func]
		if a.CountStar || a.Func == storage.AggrCount || a.Func == storage.AggrSum {
			fn = "sum" // partial counts and sums recombine by summation
		}
		if len(keys) > 0 {
			cols = append(cols, c.plan.Emit1("aggr", "sub"+fn, kindToBAT(a.K),
				mal.VarArg(pv), mal.VarArg(groups), mal.VarArg(extents)))
			continue
		}
		if guarded(a) {
			live := c.plan.Emit1("algebra", "thetaselect", mal.TBATOID,
				mal.VarArg(rest[0]), c.plan.ConstOf(mal.Str(">")), c.plan.ConstOf(mal.Int64(0)))
			rest = rest[1:]
			pv = c.plan.Emit1("algebra", "leftjoin", kindToBAT(a.K), mal.VarArg(live), mal.VarArg(pv))
		}
		cols = append(cols, c.plan.Emit1("aggr", fn, kindToBAT(a.K), mal.VarArg(pv)))
	}
	return cols
}

// exprVars compiles a list of expressions (group keys, projection
// outputs) over in, one BAT variable each.
func (c *compiler) exprVars(in rel, exprs []algebra.Expr) ([]int, error) {
	vars := make([]int, len(exprs))
	for i, e := range exprs {
		v, err := c.exprVar(in, e)
		if err != nil {
			return nil, err
		}
		vars[i] = v
	}
	return vars, nil
}

// subgroupChain chains group.subgroup over the key columns, refining
// the grouping left to right; it returns the final groups/extents vars
// (-1/-1 for an empty key list).
func (c *compiler) subgroupChain(keys []int) (groups, extents int) {
	groups, extents = -1, -1
	for _, kv := range keys {
		ng := c.plan.NewVar(mal.TBATOID)
		ne := c.plan.NewVar(mal.TBATOID)
		args := []mal.Arg{mal.VarArg(kv)}
		if groups >= 0 {
			args = append(args, mal.VarArg(groups))
		}
		c.plan.Emit("group", "subgroup", []int{ng, ne}, args...)
		groups, extents = ng, ne
	}
	return groups, extents
}

// exprVar compiles an expression and forces a BAT variable result
// (constants are not legal as full columns here).
func (c *compiler) exprVar(in rel, e algebra.Expr) (int, error) {
	op, err := c.expr(in, e)
	if err != nil {
		return 0, err
	}
	if op.isConst() {
		// Materialize a constant column aligned with the relation.
		v := c.plan.Emit1("batcalc", "const", kindToBAT(op.kind),
			c.plan.ConstOf(op.cnst), mal.VarArg(in.cols[0]))
		return v, nil
	}
	return op.varID, nil
}

// lowerProject computes the output expressions over every piece of its
// input: expressions are row-local, so the relation keeps its form. A
// projection of bare columns over a lazily-sliceable scan computes
// nothing and only picks columns, so it stays an unsliced scan: a
// consumer that needs the whole relation (a limit, the result set)
// takes the bound columns with no slice/pack chain, and a piece-wise
// one slices them itself.
func (c *compiler) lowerProject(p *algebra.Project) (rel, error) {
	in, err := c.lower(p.Input)
	if err != nil {
		return rel{}, err
	}
	if in.sliceable {
		if cols, ok := bareColumns(in.cols, p.Exprs); ok {
			return rel{schema: p.Schema(), cols: cols, sliceable: true}, nil
		}
	}
	return c.mapPieces(in, p.Schema(), func(piece rel) ([]int, error) {
		return c.exprVars(piece, p.Exprs)
	})
}

// bareColumns returns the variables of cols that exprs pick when every
// expression is a bare column reference.
func bareColumns(cols []int, exprs []algebra.Expr) ([]int, bool) {
	out := make([]int, len(exprs))
	for i, e := range exprs {
		ci, ok := e.(*algebra.ColIdx)
		if !ok {
			return nil, false
		}
		out[i] = cols[ci.Idx]
	}
	return out, true
}

// lowerDistinct deduplicates every piece locally first (mergetable: the
// merged dedup then runs over the per-piece survivors, not the full
// relation), then deduplicates the packed survivors. First-appearance
// order of the packed survivors equals first-appearance order of the
// full relation, so the output matches the sequential lowering. A
// packed input is its own single piece and is deduplicated once.
func (c *compiler) lowerDistinct(d *algebra.Distinct) (rel, error) {
	in, err := c.lower(d.Input)
	if err != nil {
		return rel{}, err
	}
	dedup := func(piece rel) ([]int, error) {
		_, extents := c.subgroupChain(piece.cols)
		return c.projectAll(piece, extents).cols, nil
	}
	local, err := c.mapPieces(in, in.schema, dedup)
	if !in.fanned() {
		return local, err
	}
	return c.mapPieces(c.packed(local), in.schema, dedup)
}

func (c *compiler) lowerSort(s *algebra.Sort) (rel, error) {
	return c.lowerSortTopK(s, 0)
}

// lowerSortTopK compiles a sort. topK > 0 is the ORDER BY ... LIMIT
// fusion hint from lowerLimit: the partitioned path then truncates
// every sorted slice to its first topK rows before the merge (no slice
// can contribute more than topK rows to the global first topK), so the
// merge, the packs and the permutation projections all run over at most
// partitions*topK rows instead of the full relation. The caller still
// applies the final global limit; topK changes cost, never results.
func (c *compiler) lowerSortTopK(s *algebra.Sort, topK int64) (rel, error) {
	in, err := c.lower(s.Input)
	if err != nil {
		return rel{}, err
	}
	if in.morselish() {
		// Sorting needs the whole relation: close the fragment (its
		// packed output is in sequential row order, so results stay
		// byte-identical) and hand the materialized columns to the
		// static slice/sort/kmerge machinery unchanged.
		in = c.packed(in)
		in.sliceable = c.opt.Partitions > 1
	}
	if in.partitioned() {
		return c.lowerMergedSort(s, c.forcePartitioned(in), topK), nil
	}
	return c.sortPacked(in, s.Keys), nil
}

// sortPacked is the sequential sort: stable multi-key, applying keys
// from least to most significant; each pass permutes every column
// through the sort order.
func (c *compiler) sortPacked(in rel, keys []algebra.SortKey) rel {
	cur := in
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		perm := c.plan.Emit1("algebra", "sortTail", mal.TBATOID,
			mal.VarArg(cur.cols[k.Idx]), c.plan.ConstOf(mal.Bool(!k.Desc)))
		cur = c.projectAll(cur, perm)
	}
	return cur
}

// lowerMergedSort is sort mitosis: every slice is stable-sorted
// independently (the parallel phase, where the n·log n work is), then
// one mat.kmerge computes the stable merge permutation over the
// per-slice sorted key columns and every column is packed and permuted
// through it. Per-slice stable sorts plus a stable merge reproduce the
// global stable sort's permutation exactly, so partitioned sorts are
// byte-identical to the sequential lowering. The output is packed: a
// sorted relation has no meaningful slice decomposition left.
func (c *compiler) lowerMergedSort(s *algebra.Sort, in rel, topK int64) rel {
	k := len(in.parts)
	sorted := make([]rel, k)
	for p := 0; p < k; p++ {
		cur := c.sortPacked(in.part(p), s.Keys)
		if topK > 0 {
			trunc := rel{schema: cur.schema}
			for i, v := range cur.cols {
				trunc.cols = append(trunc.cols, c.plan.Emit1("algebra", "slice",
					kindToBAT(cur.schema[i].Kind),
					mal.VarArg(v), c.plan.ConstOf(mal.Int64(0)), c.plan.ConstOf(mal.Int64(topK))))
			}
			cur = trunc
		}
		sorted[p] = cur
	}
	// Merge permutation: nkeys, per-key ascending flags, then per key
	// the sorted slice columns in slice order.
	args := []mal.Arg{c.plan.ConstOf(mal.Int64(int64(len(s.Keys))))}
	for _, key := range s.Keys {
		args = append(args, c.plan.ConstOf(mal.Bool(!key.Desc)))
	}
	for _, key := range s.Keys {
		for p := 0; p < k; p++ {
			args = append(args, mal.VarArg(sorted[p].cols[key.Idx]))
		}
	}
	perm := c.plan.Emit1("mat", "kmerge", mal.TBATOID, args...)
	packedParts := rel{schema: in.schema, parts: make([][]int, k)}
	for p := 0; p < k; p++ {
		packedParts.parts[p] = sorted[p].cols
	}
	return c.projectAll(c.packed(packedParts), perm)
}

func (c *compiler) lowerLimit(l *algebra.Limit) (rel, error) {
	var in rel
	var err error
	if s, ok := l.Input.(*algebra.Sort); ok {
		// ORDER BY ... LIMIT: hand the limit to the sort lowering so the
		// partitioned path truncates per slice before the merge.
		in, err = c.lowerSortTopK(s, l.N)
	} else {
		in, err = c.lower(l.Input)
	}
	if err != nil {
		return rel{}, err
	}
	in = c.packed(in)
	out := rel{schema: in.schema}
	for i, v := range in.cols {
		s := c.plan.Emit1("algebra", "slice", kindToBAT(in.schema[i].Kind),
			mal.VarArg(v), c.plan.ConstOf(mal.Int64(0)), c.plan.ConstOf(mal.Int64(l.N)))
		out.cols = append(out.cols, s)
	}
	return out, nil
}
