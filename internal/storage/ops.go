package storage

import (
	"fmt"
	"slices"
)

// Val is a scalar comparison operand for selections, typed by Kind.
type Val struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// IntVal, FltVal, StrVal and BoolVal construct comparison operands.
func IntVal(v int64) Val   { return Val{Kind: Int, I: v} }
func FltVal(v float64) Val { return Val{Kind: Flt, F: v} }
func StrVal(v string) Val  { return Val{Kind: Str, S: v} }
func BoolVal(v bool) Val   { return Val{Kind: Bool, B: v} }
func DateVal(d int64) Val  { return Val{Kind: Date, I: d} }
func OIDVal(o int64) Val   { return Val{Kind: OID, I: o} }
func (v Val) String() string {
	switch v.Kind {
	case Flt:
		return fmt.Sprintf("%g", v.F)
	case Str:
		return fmt.Sprintf("%q", v.S)
	case Bool:
		return fmt.Sprintf("%v", v.B)
	default:
		return fmt.Sprintf("%d", v.I)
	}
}

// CmpOp is a comparison operator for theta-selections.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// holds reports whether a three-way comparison result c (-1, 0 or +1)
// satisfies the operator. The kernels call it outside their row loops
// only (the Bool paths tabulate it over the two values a cell can take);
// a row loop spells its operator out instead.
func (op CmpOp) holds(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// swapped returns the operator that holds for (y, x) exactly when op
// holds for (x, y): comparing the scalar against the column instead of
// the column against the scalar.
func (op CmpOp) swapped() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}

// against returns the operator the typed loops should run for an operand
// that is (nan) or is not a float NaN. A NaN operand is "equal to" every
// cell — see ordered — which the = and != loops, written with == and !=,
// would get wrong; <= (true of every cell) and < (of none) stand in.
func (op CmpOp) against(nan bool) CmpOp {
	switch {
	case nan && op == EQ:
		return LE
	case nan && op == NE:
		return LT
	}
	return op
}

func compatible(k Kind, v Val) bool {
	if k == v.Kind {
		return true
	}
	// Numeric kinds (integer family and Flt) are mutually comparable;
	// integer operands promote to float against Flt columns.
	numK := k == Flt || k.usesInts()
	numV := v.Kind == Flt || v.Kind.usesInts()
	return numK && numV
}

// flt returns a numeric operand as a float64, promoting an integer one.
func (v Val) flt() float64 {
	if v.Kind == Flt {
		return v.F
	}
	return float64(v.I)
}

// floats returns a numeric column as float64s: the backing array of a
// Flt BAT, or a promoted copy of an integer-family one. An integer
// column met by a Flt operand (or column) is compared and computed in
// float64, cell by cell, so the promotion is one pass up front and the
// row loops stay single-typed.
func (b *BAT) floats() []float64 {
	if b.kind == Flt {
		return b.flts
	}
	ints := b.Ints()
	out := make([]float64, len(ints))
	for i, x := range ints {
		out[i] = float64(x)
	}
	return out
}

// ordered is the element types the comparison loops are instantiated
// for: int64 (Int, Date, OID), float64 (Flt) and uint32 (the codes of a
// Str column, whose order is string order — dict.go). Bool columns have
// two values and go through a two-entry table instead.
//
// Every loop implements the three-way rule the engine has always had: a
// cell is less than, greater than, or else "equal to" the operand. A
// float NaN is neither less nor greater than anything, so it satisfies
// =, <= and >= and fails !=, < and >; that is why <= is written !(x > v)
// and = carries an x != x term (false for every integer, and folded away
// by the compiler for them).
type ordered interface{ int64 | float64 | uint32 }

// oidSpan is a candidate or oid list as every kernel that takes one
// reads it — the one place that knows an OID BAT has two forms, like
// MonetDB's candidate iterator. With list nil it is the range [lo, hi):
// a dense BAT, an empty list, or every row of a column when a selection
// has no candidates. Otherwise it is list, the oids in order.
type oidSpan struct {
	list   []int64
	lo, hi int64
}

// spanOf reads an OID BAT as a span.
func spanOf(b *BAT) oidSpan {
	switch {
	case b.dense:
		return oidSpan{lo: b.seq, hi: b.seq + int64(b.rows)}
	case len(b.ints) == 0:
		return oidSpan{}
	}
	return oidSpan{list: b.ints}
}

func (s oidSpan) len() int {
	if s.list != nil {
		return len(s.list)
	}
	return int(s.hi - s.lo)
}

// sub returns the span's entries [i, j).
func (s oidSpan) sub(i, j int) oidSpan {
	if s.list != nil {
		return oidSpan{list: s.list[i:j]}
	}
	return oidSpan{lo: s.lo + int64(i), hi: s.lo + int64(j)}
}

// outside reports the first oid of a range that does not address a row
// of an n-row column, without reading a cell. A list's loop finds its
// own bad oid in the pass that reads through it.
func (s oidSpan) outside(n int) (int64, bool) {
	if s.list != nil || s.hi <= int64(n) || s.lo == s.hi {
		return 0, false
	}
	return max(s.lo, int64(n)), true
}

// fill writes a range's oids into dst, which has its length.
func (s oidSpan) fill(dst []int64) {
	for i := range dst {
		dst[i] = s.lo + int64(i)
	}
}

// selectChunk is how many candidates a selection loop reads at most
// before the result buffer is made room for again: the cells of the
// largest array the free list keeps. A selection takes a buffer of its
// candidate count when that fits, and so never grows; a larger one grows
// in steps no bigger than what it has read.
const selectChunk = recycleBytes / 8

// oidRangeErr is the one message for an oid that does not address a row
// of an n-row column, whichever kernel met it.
func oidRangeErr(what string, oid int64, n int) error {
	return fmt.Errorf("storage: %s oid %d out of range 0..%d", what, oid, n-1)
}

// b2i is a bool as 0 or 1. The compiler makes it a flag read, not a
// branch, so a loop that adds or ands it runs the same instructions
// whatever its cells hold: a predicate is b2i(a)&b2i(b) != 0, never
// a && b, and a selection advances its output index by b2i of its
// predicate.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectLoop reads the oids of span (positions of the column being
// selected) and keeps those whose cells pass, in order, at the front of
// dst, which has exactly one cell per oid of span. It writes every oid
// at the current end of what it kept and advances past it by the
// predicate (dst[m] = oid; m += b2i(pass)), so no branch depends on a
// cell and cells past the count hold oids that failed. It returns the
// count and the index in span.list of the first oid outside the column,
// or -1. A range is in the column.
type selectLoop func(dst []int64, span oidSpan) (kept, bad int)

// selection runs loop over the candidates in cands (every row of b when
// nil) into a buffer from the allocation helper, and wraps the result;
// it is the one place a selection's output is sized. Oids read from a
// range come out ascending and distinct, so they are contiguous exactly
// when the last is the first plus the count less one: then the result is
// dense and the buffer goes back at once.
func selection(b, cands *BAT, loop selectLoop) (*BAT, error) {
	span := oidSpan{hi: int64(b.Len())}
	if cands != nil {
		if cands.kind != OID {
			return nil, fmt.Errorf("storage: candidate list has kind %s, want oid", cands.kind)
		}
		span = spanOf(cands)
		if oid, bad := span.outside(b.Len()); bad {
			return nil, oidRangeErr("candidate", oid, b.Len())
		}
	}
	n := span.len()
	out, bk := take[int64](min(n, selectChunk))
	out = out[:0]
	for at := 0; at < n; at += selectChunk {
		part := span.sub(at, min(at+selectChunk, n))
		k := part.len()
		out, bk = grow(out, bk, k)
		kept, bad := loop(out[len(out):len(out)+k], part)
		if bad >= 0 {
			bk.release()
			return nil, oidRangeErr("candidate", part.list[bad], b.Len())
		}
		out = out[:len(out)+kept]
	}
	if span.list != nil {
		return wrap(OID, out, bk), nil
	}
	return ascendingOIDs(out, bk), nil
}

// ascendingOIDs wraps ascending, distinct oids in bk's buffer: dense, and
// the buffer released, when they are contiguous; the list otherwise.
func ascendingOIDs(out []int64, bk *backing) *BAT {
	n := len(out)
	if n > 0 && out[n-1]-out[0] != int64(n-1) {
		return wrap(OID, out, bk)
	}
	var seq int64
	if n > 0 {
		seq = out[0]
	}
	bk.release()
	return newDense(seq, n)
}

// ThetaSelect scans b (restricted to the candidate oids in cands when
// non-nil) and returns the oids of rows satisfying "row op v". This is
// MAL's algebra.thetaselect.
func ThetaSelect(b *BAT, op CmpOp, v Val, cands *BAT) (*BAT, error) {
	if !compatible(b.kind, v) {
		return nil, fmt.Errorf("storage: thetaselect %s against %s operand", b.kind, v.Kind)
	}
	switch {
	case b.kind == Str:
		op, code := b.dict.codeOp(op, v.S)
		return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectCmp(dst, b.codes, op, code, c) })
	case b.kind == Bool:
		keepF, keepT := op.holds(cmpBool(false, v.B)), op.holds(cmpBool(true, v.B))
		return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectBool(dst, b.bools, keepF, keepT, c) })
	case b.kind == Flt || v.Kind == Flt:
		col, f := b.floats(), v.flt()
		return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectCmp(dst, col, op, f, c) })
	}
	col := b.Ints()
	return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectCmp(dst, col, op, v.I, c) })
}

// selectCmp keeps the positions in c — a range of col's rows, read by
// the loop a selection without candidates runs, or a list of candidates
// — whose cell satisfies "cell op v": one loop per operator, a list's
// bounds checked in the same pass. It is a selectLoop.
func selectCmp[T ordered](dst []int64, col []T, op CmpOp, v T, c oidSpan) (m, bad int) {
	op = op.against(v != v)
	if c.list == nil {
		base, col := c.lo, col[c.lo:c.hi]
		switch op {
		case EQ:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(x == v) | b2i(x != x)
			}
		case NE:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(x != v) & b2i(x == x)
			}
		case LT:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(x < v)
			}
		case LE:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(!(x > v))
			}
		case GT:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(x > v)
			}
		default:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(!(x < v))
			}
		}
		return m, -1
	}
	n := uint64(len(col))
	switch op {
	case EQ:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			x := col[oid]
			dst[m] = oid
			m += b2i(x == v) | b2i(x != x)
		}
	case NE:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			x := col[oid]
			dst[m] = oid
			m += b2i(x != v) & b2i(x == x)
		}
	case LT:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			dst[m] = oid
			m += b2i(col[oid] < v)
		}
	case LE:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			dst[m] = oid
			m += b2i(!(col[oid] > v))
		}
	case GT:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			dst[m] = oid
			m += b2i(col[oid] > v)
		}
	default:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			dst[m] = oid
			m += b2i(!(col[oid] < v))
		}
	}
	return m, -1
}

// cmpBool is the three-way comparison of two bits, false before true.
func cmpBool(x, y bool) int {
	switch {
	case !x && y:
		return -1
	case x && !y:
		return 1
	}
	return 0
}

// selectBool is the selection loop of a Bool column: a cell has two
// values, so the predicate is tabulated before the loop — keepF says
// whether false cells pass, keepT whether true ones do.
func selectBool(dst []int64, col []bool, keepF, keepT bool, c oidSpan) (m, bad int) {
	f, t := b2i(keepF), b2i(keepT)
	if c.list == nil {
		base, col := c.lo, col[c.lo:c.hi]
		for i, x := range col {
			dst[m] = base + int64(i)
			m += b2i(x)&t | b2i(!x)&f
		}
		return m, -1
	}
	n := uint64(len(col))
	for k, oid := range c.list {
		if uint64(oid) >= n {
			return 0, k
		}
		x := col[oid]
		dst[m] = oid
		m += b2i(x)&t | b2i(!x)&f
	}
	return m, -1
}

// boundOps returns the comparisons a range's bounds stand for:
// row loOp lo and row hiOp hi.
func boundOps(loInc, hiInc bool) (loOp, hiOp CmpOp) {
	loOp, hiOp = GT, LT
	if loInc {
		loOp = GE
	}
	if hiInc {
		hiOp = LE
	}
	return loOp, hiOp
}

// RangeSelect returns oids of rows with lo <= row <= hi (bound inclusivity
// controlled by loInc/hiInc), restricted to cands when non-nil. This is
// MAL's algebra.select(b, lo, hi).
func RangeSelect(b *BAT, lo, hi Val, loInc, hiInc bool, cands *BAT) (*BAT, error) {
	if !compatible(b.kind, lo) || !compatible(b.kind, hi) {
		return nil, fmt.Errorf("storage: select bounds %s/%s against %s column", lo.Kind, hi.Kind, b.kind)
	}
	loOp, hiOp := boundOps(loInc, hiInc)
	if b.kind.usesInts() && (lo.Kind == Flt) != (hi.Kind == Flt) {
		// One bound compares in int64 and the other in float64: no single
		// typed loop is exact for both, so narrow twice.
		above, err := ThetaSelect(b, loOp, lo, cands)
		if err != nil {
			return nil, err
		}
		defer above.Release()
		return ThetaSelect(b, hiOp, hi, above)
	}
	switch {
	case b.kind == Str:
		a, z := b.dict.codeRange(lo.S, hi.S, loInc, hiInc)
		return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectRange(dst, b.codes, a, z, true, false, c) })
	case b.kind == Bool:
		keep := func(x bool) bool { return loOp.holds(cmpBool(x, lo.B)) && hiOp.holds(cmpBool(x, hi.B)) }
		keepF, keepT := keep(false), keep(true)
		return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectBool(dst, b.bools, keepF, keepT, c) })
	case b.kind == Flt || lo.Kind == Flt:
		col, l, h := b.floats(), lo.flt(), hi.flt()
		return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectRange(dst, col, l, h, loInc, hiInc, c) })
	}
	col := b.Ints()
	return selection(b, cands, func(dst []int64, c oidSpan) (int, int) { return selectRange(dst, col, lo.I, hi.I, loInc, hiInc, c) })
}

// selectRange is selectCmp for a two-sided range: both bounds tested in
// one pass, one loop per inclusivity pair.
func selectRange[T ordered](dst []int64, col []T, lo, hi T, loInc, hiInc bool, c oidSpan) (m, bad int) {
	if c.list == nil {
		base, col := c.lo, col[c.lo:c.hi]
		switch {
		case loInc && hiInc:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(!(x < lo)) & b2i(!(x > hi))
			}
		case loInc:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(!(x < lo)) & b2i(x < hi)
			}
		case hiInc:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(x > lo) & b2i(!(x > hi))
			}
		default:
			for i, x := range col {
				dst[m] = base + int64(i)
				m += b2i(x > lo) & b2i(x < hi)
			}
		}
		return m, -1
	}
	n := uint64(len(col))
	switch {
	case loInc && hiInc:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			x := col[oid]
			dst[m] = oid
			m += b2i(!(x < lo)) & b2i(!(x > hi))
		}
	case loInc:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			x := col[oid]
			dst[m] = oid
			m += b2i(!(x < lo)) & b2i(x < hi)
		}
	case hiInc:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			x := col[oid]
			dst[m] = oid
			m += b2i(x > lo) & b2i(!(x > hi))
		}
	default:
		for k, oid := range c.list {
			if uint64(oid) >= n {
				return 0, k
			}
			x := col[oid]
			dst[m] = oid
			m += b2i(x > lo) & b2i(x < hi)
		}
	}
	return m, -1
}

// Project gathers tail[oid] for every oid in oids, producing a column
// aligned with oids. This is MAL's algebra.leftjoin(cands, col) /
// algebra.projection. Through a range — a dense list — the gather is
// the tail's rows [lo, hi) as they stand, so the result is a view of
// the tail (Slice), no cell copied.
func Project(oids, tail *BAT) (*BAT, error) {
	if oids.kind != OID {
		return nil, fmt.Errorf("storage: project with %s oids", oids.kind)
	}
	span := spanOf(oids)
	if span.list == nil {
		if oid, bad := span.outside(tail.Len()); bad {
			return nil, oidRangeErr("project", oid, tail.Len())
		}
		return tail.Slice(int(span.lo), int(span.hi)), nil
	}
	var out *BAT
	var bad int
	switch k := tail.kind; {
	case k.usesInts():
		out, bad = gather(k, tail.Ints(), span.list)
	case k == Flt:
		out, bad = gather(k, tail.flts, span.list)
	case k == Str:
		out, bad = gather(k, tail.codes, span.list)
	default:
		out, bad = gather(k, tail.bools, span.list)
	}
	if bad >= 0 {
		return nil, oidRangeErr("project", span.list[bad], tail.Len())
	}
	out.dict = tail.dict
	return out, nil
}

// gather returns a BAT of kind k holding tail[oid] for every oid,
// exactly sized and in one pass, over a buffer from the allocation
// helper; bad is the index of the first oid outside tail, or -1.
func gather[T elem](k Kind, tail []T, oids []int64) (out *BAT, bad int) {
	cells, bk := take[T](len(oids))
	n := uint64(len(tail))
	for i, oid := range oids {
		if uint64(oid) >= n {
			bk.release()
			return nil, i
		}
		cells[i] = tail[oid]
	}
	return wrap(k, cells, bk), -1
}

// AggrKind selects an aggregate function.
type AggrKind int

// Aggregates supported by Aggr.
const (
	AggrSum AggrKind = iota
	AggrCount
	AggrMin
	AggrMax
	AggrAvg
)

// String returns the SQL spelling.
func (a AggrKind) String() string {
	switch a {
	case AggrSum:
		return "sum"
	case AggrCount:
		return "count"
	case AggrMin:
		return "min"
	case AggrMax:
		return "max"
	case AggrAvg:
		return "avg"
	}
	return "?"
}

// Aggr computes a grouped aggregate of b under the per-row group ids in
// groups (ngroups distinct ids, dense from 0). Sum/avg over integer
// columns yield Int/Flt respectively; count always yields Int. Min/max
// preserve the input kind. A nil groups computes a single global group.
// Only the aggregate asked for is computed, each in one typed loop that
// accumulates in row order (so a float sum is the same sum, digit for
// digit, whatever else the query asks for).
func Aggr(kind AggrKind, b, groups *BAT, ngroups int) (*BAT, error) {
	n := b.Len()
	var gids []int64 // nil: every row belongs to group 0
	if groups == nil {
		ngroups = 1
	} else {
		if groups.Len() != n {
			return nil, fmt.Errorf("storage: aggr over %d rows with %d group ids", n, groups.Len())
		}
		gids = groups.Ints()
	}
	if kind == AggrCount {
		return FromInts(Int, countBy(n, gids, ngroups)), nil
	}
	switch b.kind {
	case Flt:
		switch kind {
		case AggrSum:
			return FromFloats(sumBy(b.flts, gids, ngroups)), nil
		case AggrMin:
			return FromFloats(minBy(b.flts, gids, ngroups)), nil
		case AggrMax:
			return FromFloats(maxBy(b.flts, gids, ngroups)), nil
		case AggrAvg:
			return FromFloats(avgBy(b.flts, gids, ngroups)), nil
		}
	case Str:
		switch kind {
		case AggrMin:
			return extremeStrs(b, minBy(b.codes, gids, ngroups), gids), nil
		case AggrMax:
			return extremeStrs(b, maxBy(b.codes, gids, ngroups), gids), nil
		}
		return nil, fmt.Errorf("storage: %s over string column", kind)
	case Bool:
		return nil, fmt.Errorf("storage: %s over bool column", kind)
	default: // integer family
		switch kind {
		case AggrSum:
			return FromInts(Int, sumBy(b.Ints(), gids, ngroups)), nil
		case AggrMin:
			return FromInts(b.kind, minBy(b.Ints(), gids, ngroups)), nil
		case AggrMax:
			return FromInts(b.kind, maxBy(b.Ints(), gids, ngroups)), nil
		case AggrAvg:
			return FromFloats(avgBy(b.Ints(), gids, ngroups)), nil
		}
	}
	return nil, fmt.Errorf("storage: unsupported aggregate %s over %s", kind, b.kind)
}

// The aggregate loops below share one convention: gids[i] is row i's
// group, and a nil gids puts every row in group 0 without a group column
// being built for it (the accumulator is then a local, not an array
// cell). A group no row belongs to keeps the zero value.

func countBy(n int, gids []int64, ngroups int) []int64 {
	out := make([]int64, ngroups)
	if gids == nil {
		if n > 0 {
			out[0] = int64(n)
		}
		return out
	}
	for _, g := range gids {
		out[g]++
	}
	return out
}

func sumBy[T int64 | float64](vals []T, gids []int64, ngroups int) []T {
	out := make([]T, ngroups)
	if gids == nil {
		var s T
		for _, v := range vals {
			s += v
		}
		if len(vals) > 0 {
			out[0] = s
		}
		return out
	}
	for i, v := range vals {
		out[gids[i]] += v
	}
	return out
}

func avgBy[T int64 | float64](vals []T, gids []int64, ngroups int) []float64 {
	sums, counts := sumBy(vals, gids, ngroups), countBy(len(vals), gids, ngroups)
	out := make([]float64, ngroups)
	for g, c := range counts {
		if c > 0 {
			out[g] = float64(sums[g]) / float64(c)
		}
	}
	return out
}

// extremeStrs wraps the min or max codes of b's groups as a Str BAT over
// b's dictionary. A group no row belongs to holds the empty string, as a
// zero-valued string cell would: that is code 0 when "" is an entry (it
// sorts first), and otherwise "" joins a copy of the dictionary.
func extremeStrs(b *BAT, codes []uint32, gids []int64) *BAT {
	d := b.dict
	if d.Len() > 0 && d.strs[0] == "" {
		return FromCodes(d, codes)
	}
	counts := countBy(len(b.codes), gids, len(codes))
	if !slices.Contains(counts, 0) {
		return FromCodes(d, codes)
	}
	wider := &Dict{strs: append([]string{""}, d.strs...)}
	for g, c := range codes {
		if counts[g] == 0 {
			codes[g] = 0
		} else {
			codes[g] = c + 1
		}
	}
	return FromCodes(wider, codes)
}

// minBy and maxBy take a group's first value as it comes and replace it
// only by a strictly smaller (larger) one, so a group that starts with a
// NaN keeps it.
func minBy[T ordered](vals []T, gids []int64, ngroups int) []T {
	out := make([]T, ngroups)
	if gids == nil {
		if len(vals) > 0 {
			m := vals[0]
			for _, v := range vals[1:] {
				if v < m {
					m = v
				}
			}
			out[0] = m
		}
		return out
	}
	seen := make([]bool, ngroups)
	for i, v := range vals {
		if g := gids[i]; !seen[g] || v < out[g] {
			out[g], seen[g] = v, true
		}
	}
	return out
}

func maxBy[T ordered](vals []T, gids []int64, ngroups int) []T {
	out := make([]T, ngroups)
	if gids == nil {
		if len(vals) > 0 {
			m := vals[0]
			for _, v := range vals[1:] {
				if v > m {
					m = v
				}
			}
			out[0] = m
		}
		return out
	}
	seen := make([]bool, ngroups)
	for i, v := range vals {
		if g := gids[i]; !seen[g] || v > out[g] {
			out[g], seen[g] = v, true
		}
	}
	return out
}

// SortOrder returns the permutation of b's oids that orders the column
// ascending (or descending). The sort is stable so multi-key ordering can
// be built by sorting from the least significant key to the most
// significant one, threading the permutation through Project.
func SortOrder(b *BAT, asc bool) *BAT {
	perm, bk := take[int64](b.Len())
	for i := range perm {
		perm[i] = int64(i)
	}
	var less func(x, y int64) bool
	switch {
	case b.kind == Flt:
		less = before(b.flts, asc)
	case b.kind == Str:
		less = before(b.codes, asc)
	case b.kind == Bool:
		v := b.bools
		if asc {
			less = func(x, y int64) bool { return !v[x] && v[y] }
		} else {
			less = func(x, y int64) bool { return v[x] && !v[y] }
		}
	default:
		less = before(b.Ints(), asc)
	}
	stableSortInt64(perm, less)
	return wrap(OID, perm, bk)
}

// before returns the sort comparator of one typed column in one
// direction: kind and direction are decided here, once, and a comparison
// is two loads and a compare.
func before[T ordered](v []T, asc bool) func(x, y int64) bool {
	if asc {
		return func(x, y int64) bool { return v[x] < v[y] }
	}
	return func(x, y int64) bool { return v[x] > v[y] }
}

// stableSortInt64 is a merge sort over int64 with a custom strict-weak
// ordering; stability is required for multi-key sorts.
func stableSortInt64(a []int64, less func(x, y int64) bool) {
	if len(a) < 2 {
		return
	}
	buf, bk := take[int64](len(a))
	mergeSortInt64(a, buf, less)
	bk.release()
}

func mergeSortInt64(a, buf []int64, less func(x, y int64) bool) {
	n := len(a)
	if n < 16 {
		// Insertion sort for small runs.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && less(a[j], a[j-1]); j-- {
				a[j-1], a[j] = a[j], a[j-1]
			}
		}
		return
	}
	mid := n / 2
	mergeSortInt64(a[:mid], buf[:mid], less)
	mergeSortInt64(a[mid:], buf[mid:], less)
	copy(buf, a[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if less(a[j], buf[i]) {
			a[k] = a[j]
			j++
		} else {
			a[k] = buf[i]
			i++
		}
		k++
	}
	for i < mid {
		a[k] = buf[i]
		i++
		k++
	}
}
