package engine

import (
	"fmt"

	"stethoscope/internal/mal"
	"stethoscope/internal/storage"
)

// registerKernels installs the MAL operator set. Names mirror MonetDB's
// modules: sql (catalog and results), algebra (selections, joins,
// projections), batcalc (elementwise math), group/aggr (grouping and
// aggregates), mat (mitosis slice/pack), and the admin modules.
func registerKernels(e *Engine) {
	e.Register("querylog", "define", kNop)
	e.Register("sql", "mvc", func(ctx *Context, in *mal.Instr) error {
		ctx.setVal(in, 0, mal.Int64(0))
		return nil
	})
	e.Register("sql", "bind", kBind)
	e.Register("sql", "resultSet", kResultSet)
	e.Register("sql", "rsColumn", kRsColumn)
	e.Register("sql", "exportResult", kExportResult)

	e.Register("mat", "slice", kMatSlice)
	e.Register("mat", "pack", kMatPack)
	e.Register("mat", "kmerge", kKMerge)

	e.Register("algebra", "thetaselect", kThetaSelect)
	e.Register("algebra", "select", kRangeSelect)
	e.Register("algebra", "selectTrue", kSelectTrue)
	e.Register("algebra", "leftjoin", kLeftJoin)
	e.Register("algebra", "hashbuild", kHashBuild)
	e.Register("algebra", "hashprobe", kHashProbe)
	e.Register("algebra", "sortTail", kSortTail)
	e.Register("algebra", "slice", kSlice)

	for name, op := range map[string]storage.ArithOp{
		"add": storage.Add, "sub": storage.Sub, "mul": storage.Mul, "div": storage.Div,
	} {
		e.Register("batcalc", name, makeArith(op))
	}
	for name, op := range map[string]storage.CmpOp{
		"eq": storage.EQ, "ne": storage.NE, "lt": storage.LT,
		"le": storage.LE, "gt": storage.GT, "ge": storage.GE,
	} {
		e.Register("batcalc", name, makeCompare(op))
	}
	e.Register("batcalc", "and", makeBoolCombine(true))
	e.Register("batcalc", "or", makeBoolCombine(false))
	e.Register("batcalc", "not", kNot)
	e.Register("batcalc", "between", kBetween)
	e.Register("batcalc", "const", kConstColumn)
	e.Register("batcalc", "like", kLike)

	e.Register("group", "subgroup", kSubgroup)
	for name, kind := range map[string]storage.AggrKind{
		"sum": storage.AggrSum, "count": storage.AggrCount,
		"min": storage.AggrMin, "max": storage.AggrMax, "avg": storage.AggrAvg,
	} {
		e.Register("aggr", name, makeGlobalAggr(kind))
	}
	for name, kind := range map[string]storage.AggrKind{
		"sum": storage.AggrSum, "min": storage.AggrMin, "max": storage.AggrMax, "avg": storage.AggrAvg,
	} {
		e.Register("aggr", "sub"+name, makeSubAggr(kind))
	}
	e.Register("aggr", "subcount", kSubCount)
}

func kNop(ctx *Context, in *mal.Instr) error { return nil }

func kBind(ctx *Context, in *mal.Instr) error {
	schema, err := ctx.str(in, 0)
	if err != nil {
		return err
	}
	table, err := ctx.str(in, 1)
	if err != nil {
		return err
	}
	column, err := ctx.str(in, 2)
	if err != nil {
		return err
	}
	b, err := ctx.eng.cat.Bind(schema, table, column)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, b)
	return nil
}

func kResultSet(ctx *Context, in *mal.Instr) error {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.results = append(ctx.results, &Result{})
	ctx.setVal(in, 0, mal.Int64(int64(len(ctx.results)-1)))
	return nil
}

func kRsColumn(ctx *Context, in *mal.Instr) error {
	handle, err := ctx.intArg(in, 0)
	if err != nil {
		return err
	}
	name, err := ctx.str(in, 1)
	if err != nil {
		return err
	}
	col, err := ctx.bat(in, 2)
	if err != nil {
		return err
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if handle < 0 || int(handle) >= len(ctx.results) {
		return fmt.Errorf("bad result handle %d", handle)
	}
	rs := ctx.results[handle]
	rs.Names = append(rs.Names, name)
	rs.Cols = append(rs.Cols, col)
	col.Pin() // the column outlives the run: its array is never recycled
	return nil
}

func kExportResult(ctx *Context, in *mal.Instr) error {
	handle, err := ctx.intArg(in, 0)
	if err != nil {
		return err
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if handle < 0 || int(handle) >= len(ctx.results) {
		return fmt.Errorf("bad result handle %d", handle)
	}
	ctx.final = ctx.results[handle]
	return nil
}

// kMatSlice implements mat.slice(col, p, k): horizontal partition p of k.
func kMatSlice(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	p, err := ctx.intArg(in, 1)
	if err != nil {
		return err
	}
	k, err := ctx.intArg(in, 2)
	if err != nil {
		return err
	}
	if k <= 0 || p < 0 || p >= k {
		return fmt.Errorf("bad partition %d of %d", p, k)
	}
	n := int64(b.Len())
	lo := p * n / k
	hi := (p + 1) * n / k
	ctx.setBAT(in, 0, b.Slice(int(lo), int(hi)))
	return nil
}

func kMatPack(ctx *Context, in *mal.Instr) error {
	if len(in.Args) == 0 {
		return fmt.Errorf("pack of nothing")
	}
	parts := make([]*storage.BAT, len(in.Args))
	for i := range in.Args {
		b, err := ctx.bat(in, i)
		if err != nil {
			return err
		}
		parts[i] = b
	}
	out, err := storage.Concat(parts)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

var cmpOps = map[string]storage.CmpOp{
	"=": storage.EQ, "!=": storage.NE, "<": storage.LT,
	"<=": storage.LE, ">": storage.GT, ">=": storage.GE,
}

// kThetaSelect handles both arities:
//
//	thetaselect(col, op, val)
//	thetaselect(col, cands, op, val)
func kThetaSelect(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	var cands *storage.BAT
	opIdx := 1
	if len(in.Args) == 4 {
		cands, err = ctx.bat(in, 1)
		if err != nil {
			return err
		}
		opIdx = 2
	}
	opStr, err := ctx.str(in, opIdx)
	if err != nil {
		return err
	}
	op, ok := cmpOps[opStr]
	if !ok {
		return fmt.Errorf("unknown comparison %q", opStr)
	}
	val, err := ctx.scalar(in, opIdx+1)
	if err != nil {
		return err
	}
	out, err := storage.ThetaSelect(b, op, val, cands)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

// kRangeSelect handles both arities:
//
//	select(col, lo, hi, loInc, hiInc)
//	select(col, cands, lo, hi, loInc, hiInc)
func kRangeSelect(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	var cands *storage.BAT
	base := 1
	if len(in.Args) == 6 {
		cands, err = ctx.bat(in, 1)
		if err != nil {
			return err
		}
		base = 2
	}
	lo, err := ctx.scalar(in, base)
	if err != nil {
		return err
	}
	hi, err := ctx.scalar(in, base+1)
	if err != nil {
		return err
	}
	loInc, err := ctx.boolArg(in, base+2)
	if err != nil {
		return err
	}
	hiInc, err := ctx.boolArg(in, base+3)
	if err != nil {
		return err
	}
	out, err := storage.RangeSelect(b, lo, hi, loInc, hiInc, cands)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

func kSelectTrue(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	out, err := storage.SelectTrue(b)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

func kLeftJoin(ctx *Context, in *mal.Instr) error {
	oids, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	col, err := ctx.bat(in, 1)
	if err != nil {
		return err
	}
	out, err := storage.Project(oids, col)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

// kHashBuild materializes the build side of a hash join:
// algebra.hashbuild(keycol) indexes the column once; every probe piece
// shares the handle (storage.JoinHash probes are read-only, so the
// dataflow scheduler may run them concurrently).
func kHashBuild(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	ctx.setVal(in, 0, mal.Value{Type: mal.THash, Col: storage.BuildJoinHash(b)})
	return nil
}

// kHashProbe implements algebra.hashprobe(probecol, hash): one piece of
// the probe side (a mitosis slice, or the whole packed column) joined
// against the shared build handle, returning aligned probe/build oid
// pairs.
func kHashProbe(ctx *Context, in *mal.Instr) error {
	if len(in.Args) < 2 {
		return fmt.Errorf("hashprobe needs a hash argument")
	}
	if len(in.Rets) != 2 {
		return fmt.Errorf("hashprobe needs two results, has %d", len(in.Rets))
	}
	probe, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	h, ok := ctx.value(in.Args[1]).Col.(*storage.JoinHash)
	if !ok {
		return fmt.Errorf("hashprobe argument 1 is not a join hash")
	}
	lo, ro, err := h.Probe(probe)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, lo)
	ctx.setBAT(in, 1, ro)
	return nil
}

// kKMerge implements mat.kmerge, the sort-mitosis recombination: a
// stable k-way merge permutation over per-slice sorted runs. Argument
// layout: nkeys:int, then nkeys ascending:bit flags, then nkeys groups
// of k key columns (group j holds sort key j of every slice, slice
// order). The result indexes the mat.pack concatenation of the slices.
func kKMerge(ctx *Context, in *mal.Instr) error {
	nkeys64, err := ctx.intArg(in, 0)
	if err != nil {
		return err
	}
	nkeys := int(nkeys64)
	if nkeys < 1 {
		return fmt.Errorf("kmerge with %d keys", nkeys)
	}
	rest := len(in.Args) - 1 - nkeys
	if rest < nkeys || rest%nkeys != 0 {
		return fmt.Errorf("kmerge argument count %d does not fit %d keys", len(in.Args), nkeys)
	}
	k := rest / nkeys
	asc := make([]bool, nkeys)
	for j := 0; j < nkeys; j++ {
		if asc[j], err = ctx.boolArg(in, 1+j); err != nil {
			return err
		}
	}
	keys := make([][]*storage.BAT, nkeys)
	base := 1 + nkeys
	for j := 0; j < nkeys; j++ {
		keys[j] = make([]*storage.BAT, k)
		for s := 0; s < k; s++ {
			if keys[j][s], err = ctx.bat(in, base+j*k+s); err != nil {
				return err
			}
		}
	}
	perm, err := storage.MergeRuns(keys, asc)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, perm)
	return nil
}

func kSortTail(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	asc, err := ctx.boolArg(in, 1)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, storage.SortOrder(b, asc))
	return nil
}

func kSlice(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	lo, err := ctx.intArg(in, 1)
	if err != nil {
		return err
	}
	hi, err := ctx.intArg(in, 2)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, b.Slice(int(lo), int(hi)))
	return nil
}

// operandPair classifies (arg0, arg1) into BAT/BAT, BAT/scalar or
// scalar/BAT for the elementwise kernels.
func operandPair(ctx *Context, in *mal.Instr) (l, r *storage.BAT, sv storage.Val, flip, scalarCase bool, err error) {
	v0 := ctx.value(in.Args[0])
	v1 := ctx.value(in.Args[1])
	b0, ok0 := v0.Col.(*storage.BAT)
	b1, ok1 := v1.Col.(*storage.BAT)
	switch {
	case ok0 && ok1:
		return b0, b1, storage.Val{}, false, false, nil
	case ok0:
		sv, err = ctx.scalar(in, 1)
		return b0, nil, sv, false, true, err
	case ok1:
		sv, err = ctx.scalar(in, 0)
		return b1, nil, sv, true, true, err
	}
	return nil, nil, storage.Val{}, false, false, fmt.Errorf("no BAT operand")
}

func makeArith(op storage.ArithOp) Kernel {
	return func(ctx *Context, in *mal.Instr) error {
		l, r, sv, flip, scalar, err := operandPair(ctx, in)
		if err != nil {
			return err
		}
		var out *storage.BAT
		if scalar {
			out, err = storage.ArithScalar(op, l, sv, flip)
		} else {
			out, err = storage.Arith(op, l, r)
		}
		if err != nil {
			return err
		}
		ctx.setBAT(in, 0, out)
		return nil
	}
}

func makeCompare(op storage.CmpOp) Kernel {
	return func(ctx *Context, in *mal.Instr) error {
		l, r, sv, flip, scalar, err := operandPair(ctx, in)
		if err != nil {
			return err
		}
		var out *storage.BAT
		if scalar {
			out, err = storage.CompareScalar(op, l, sv, flip)
		} else {
			out, err = storage.Compare(op, l, r)
		}
		if err != nil {
			return err
		}
		ctx.setBAT(in, 0, out)
		return nil
	}
}

func makeBoolCombine(and bool) Kernel {
	return func(ctx *Context, in *mal.Instr) error {
		l, err := ctx.bat(in, 0)
		if err != nil {
			return err
		}
		r, err := ctx.bat(in, 1)
		if err != nil {
			return err
		}
		out, err := storage.BoolCombine(and, l, r)
		if err != nil {
			return err
		}
		ctx.setBAT(in, 0, out)
		return nil
	}
}

func kNot(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	out, err := storage.BoolNot(b)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

// kBetween computes col >= lo AND col <= hi; bounds may be scalars or
// aligned BATs. Two scalar bounds — what SQL's BETWEEN lowers to — are
// one pass over the column; a column bound falls back to two compares
// and an and.
func kBetween(ctx *Context, in *mal.Instr) error {
	col, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	_, loCol := ctx.value(in.Args[1]).Col.(*storage.BAT)
	_, hiCol := ctx.value(in.Args[2]).Col.(*storage.BAT)
	if !loCol && !hiCol {
		lo, err := ctx.scalar(in, 1)
		if err != nil {
			return err
		}
		hi, err := ctx.scalar(in, 2)
		if err != nil {
			return err
		}
		out, err := storage.Between(col, lo, hi)
		if err != nil {
			return err
		}
		ctx.setBAT(in, 0, out)
		return nil
	}
	cmpBound := func(i int, op storage.CmpOp) (*storage.BAT, error) {
		v := ctx.value(in.Args[i])
		if b, ok := v.Col.(*storage.BAT); ok {
			return storage.Compare(op, col, b)
		}
		sv, err := ctx.scalar(in, i)
		if err != nil {
			return nil, err
		}
		return storage.CompareScalar(op, col, sv, false)
	}
	ge, err := cmpBound(1, storage.GE)
	if err != nil {
		return err
	}
	le, err := cmpBound(2, storage.LE)
	if err != nil {
		return err
	}
	out, err := storage.BoolCombine(true, ge, le)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

// kConstColumn materializes a constant column aligned with a reference
// column: batcalc.const(val, ref).
func kConstColumn(ctx *Context, in *mal.Instr) error {
	ref, err := ctx.bat(in, 1)
	if err != nil {
		return err
	}
	v := ctx.value(in.Args[0])
	n := ref.Len()
	switch v.Type {
	case mal.TInt, mal.TDate, mal.TOID:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = v.Int
		}
		kind := storage.Int
		if v.Type == mal.TDate {
			kind = storage.Date
		} else if v.Type == mal.TOID {
			kind = storage.OID
		}
		ctx.setBAT(in, 0, storage.FromInts(kind, vals))
	case mal.TFlt:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = v.Flt
		}
		ctx.setBAT(in, 0, storage.FromFloats(vals))
	case mal.TStr:
		// Every row is code 0 of a one-entry dictionary.
		ctx.setBAT(in, 0, storage.FromCodes(storage.FromStrings([]string{v.Str}).Dict(), make([]uint32, n)))
	case mal.TBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = v.Bool
		}
		ctx.setBAT(in, 0, storage.FromBools(vals))
	default:
		return fmt.Errorf("const column of type %s", v.Type)
	}
	return nil
}

// kLike evaluates a SQL LIKE pattern elementwise: batcalc.like(col,
// "pattern").
func kLike(ctx *Context, in *mal.Instr) error {
	col, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	pattern, err := ctx.str(in, 1)
	if err != nil {
		return err
	}
	out, err := storage.LikeMatch(col, pattern)
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

// kSubgroup handles group.subgroup(col) and group.subgroup(col, prev).
func kSubgroup(ctx *Context, in *mal.Instr) error {
	b, err := ctx.bat(in, 0)
	if err != nil {
		return err
	}
	var prev *storage.BAT
	if len(in.Args) == 2 {
		prev, err = ctx.bat(in, 1)
		if err != nil {
			return err
		}
	}
	groups, extents, _, err := storage.Group(b, prev)
	if err != nil {
		return err
	}
	if len(in.Rets) != 2 {
		return fmt.Errorf("subgroup needs two results")
	}
	ctx.setBAT(in, 0, groups)
	ctx.setBAT(in, 1, extents)
	return nil
}

func makeSubAggr(kind storage.AggrKind) Kernel {
	return func(ctx *Context, in *mal.Instr) error {
		col, err := ctx.bat(in, 0)
		if err != nil {
			return err
		}
		groups, err := ctx.bat(in, 1)
		if err != nil {
			return err
		}
		extents, err := ctx.bat(in, 2)
		if err != nil {
			return err
		}
		out, err := storage.Aggr(kind, col, groups, extents.Len())
		if err != nil {
			return err
		}
		ctx.setBAT(in, 0, out)
		return nil
	}
}

// kSubCount handles both arities: subcount(groups, extents) for count(*)
// and subcount(col, groups, extents) for count(col) — the counted column
// is irrelevant to the row count, so both reduce to counting group ids.
func kSubCount(ctx *Context, in *mal.Instr) error {
	base := 0
	if len(in.Args) == 3 {
		base = 1
	}
	groups, err := ctx.bat(in, base)
	if err != nil {
		return err
	}
	extents, err := ctx.bat(in, base+1)
	if err != nil {
		return err
	}
	out, err := storage.Aggr(storage.AggrCount, groups, groups, extents.Len())
	if err != nil {
		return err
	}
	ctx.setBAT(in, 0, out)
	return nil
}

func makeGlobalAggr(kind storage.AggrKind) Kernel {
	return func(ctx *Context, in *mal.Instr) error {
		col, err := ctx.bat(in, 0)
		if err != nil {
			return err
		}
		out, err := storage.Aggr(kind, col, nil, 0)
		if err != nil {
			return err
		}
		ctx.setBAT(in, 0, out)
		return nil
	}
}
