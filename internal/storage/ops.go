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
	out := make([]float64, len(b.ints))
	for i, x := range b.ints {
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

// maxSelectCap bounds how much a selection preallocates for its result.
// Small inputs (mitosis partitions) get exactly-sized buffers — no
// regrowth on the hot path; huge inputs with selective predicates must
// not pin an input-sized buffer for a handful of OIDs, so beyond the
// bound the result grows normally from this starting capacity.
const maxSelectCap = 1 << 16

// selectCap sizes a selection's result buffer.
func selectCap(b, cands *BAT) int {
	n := b.Len()
	if cands != nil {
		n = cands.Len()
	}
	if n > maxSelectCap {
		n = maxSelectCap
	}
	return n
}

// candidates returns the oids a selection over b is restricted to (nil:
// every row) and an empty result buffer with room for them from the
// allocation helper.
func candidates(b, cands *BAT) (oids, out []int64, bk *backing, err error) {
	if cands != nil && cands.kind != OID {
		return nil, nil, nil, fmt.Errorf("storage: candidate list has kind %s, want oid", cands.kind)
	}
	out, bk = take[int64](selectCap(b, cands))
	out = out[:0]
	if cands == nil {
		return nil, out, bk, nil
	}
	oids = cands.ints
	if oids == nil {
		oids = []int64{} // an empty candidate list selects nothing, a nil one everything
	}
	return oids, out, bk, nil
}

// oidRangeErr is the one message for an oid that does not address a row
// of an n-row column, whichever kernel met it.
func oidRangeErr(what string, oid int64, n int) error {
	return fmt.Errorf("storage: %s oid %d out of range 0..%d", what, oid, n-1)
}

// selected wraps a selection loop's result: the oids in the buffer bk
// owns (unless they outgrew it), or the error for the candidate at index
// bad.
func selected(b *BAT, cands, out []int64, bk *backing, bad int) (*BAT, error) {
	if bad >= 0 {
		bk.release()
		return nil, oidRangeErr("candidate", cands[bad], b.Len())
	}
	return wrap(OID, out, settle(out, bk)), nil
}

// ThetaSelect scans b (restricted to the candidate oids in cands when
// non-nil) and returns the oids of rows satisfying "row op v". This is
// MAL's algebra.thetaselect.
func ThetaSelect(b *BAT, op CmpOp, v Val, cands *BAT) (*BAT, error) {
	if !compatible(b.kind, v) {
		return nil, fmt.Errorf("storage: thetaselect %s against %s operand", b.kind, v.Kind)
	}
	oids, out, bk, err := candidates(b, cands)
	if err != nil {
		return nil, err
	}
	var bad int
	switch {
	case b.kind == Str:
		op, code := b.dict.codeOp(op, v.S)
		out, bad = selectCmp(out, b.codes, op, code, oids)
	case b.kind == Bool:
		out, bad = selectBool(out, b.bools, op.holds(cmpBool(false, v.B)), op.holds(cmpBool(true, v.B)), oids)
	case b.kind == Flt || v.Kind == Flt:
		out, bad = selectCmp(out, b.floats(), op, v.flt(), oids)
	default:
		out, bad = selectCmp(out, b.ints, op, v.I, oids)
	}
	return selected(b, oids, out, bk, bad)
}

// selectCmp appends to out the positions of col (every one, or the
// candidates in cands) whose cell satisfies "cell op v": one loop per
// operator, candidate bounds checked in the same pass. It returns the
// index in cands of the first oid outside col, or -1.
func selectCmp[T ordered](out []int64, col []T, op CmpOp, v T, cands []int64) ([]int64, int) {
	op = op.against(v != v)
	if cands == nil {
		switch op {
		case EQ:
			for i, x := range col {
				if x == v || x != x {
					out = append(out, int64(i))
				}
			}
		case NE:
			for i, x := range col {
				if x != v && x == x {
					out = append(out, int64(i))
				}
			}
		case LT:
			for i, x := range col {
				if x < v {
					out = append(out, int64(i))
				}
			}
		case LE:
			for i, x := range col {
				if !(x > v) {
					out = append(out, int64(i))
				}
			}
		case GT:
			for i, x := range col {
				if x > v {
					out = append(out, int64(i))
				}
			}
		default:
			for i, x := range col {
				if !(x < v) {
					out = append(out, int64(i))
				}
			}
		}
		return out, -1
	}
	n := uint64(len(col))
	switch op {
	case EQ:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if x := col[oid]; x == v || x != x {
				out = append(out, oid)
			}
		}
	case NE:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if x := col[oid]; x != v && x == x {
				out = append(out, oid)
			}
		}
	case LT:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if col[oid] < v {
				out = append(out, oid)
			}
		}
	case LE:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if !(col[oid] > v) {
				out = append(out, oid)
			}
		}
	case GT:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if col[oid] > v {
				out = append(out, oid)
			}
		}
	default:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if !(col[oid] < v) {
				out = append(out, oid)
			}
		}
	}
	return out, -1
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
func selectBool(out []int64, col []bool, keepF, keepT bool, cands []int64) ([]int64, int) {
	if cands == nil {
		for i, x := range col {
			if (x && keepT) || (!x && keepF) {
				out = append(out, int64(i))
			}
		}
		return out, -1
	}
	n := uint64(len(col))
	for k, oid := range cands {
		if uint64(oid) >= n {
			return nil, k
		}
		if x := col[oid]; (x && keepT) || (!x && keepF) {
			out = append(out, oid)
		}
	}
	return out, -1
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
	oids, out, bk, err := candidates(b, cands)
	if err != nil {
		return nil, err
	}
	var bad int
	switch {
	case b.kind == Str:
		a, z := b.dict.codeRange(lo.S, hi.S, loInc, hiInc)
		out, bad = selectRange(out, b.codes, a, z, true, false, oids)
	case b.kind == Bool:
		keep := func(x bool) bool { return loOp.holds(cmpBool(x, lo.B)) && hiOp.holds(cmpBool(x, hi.B)) }
		out, bad = selectBool(out, b.bools, keep(false), keep(true), oids)
	case b.kind == Flt || lo.Kind == Flt:
		out, bad = selectRange(out, b.floats(), lo.flt(), hi.flt(), loInc, hiInc, oids)
	default:
		out, bad = selectRange(out, b.ints, lo.I, hi.I, loInc, hiInc, oids)
	}
	return selected(b, oids, out, bk, bad)
}

// selectRange is selectCmp for a two-sided range: both bounds tested in
// one pass, one loop per inclusivity pair.
func selectRange[T ordered](out []int64, col []T, lo, hi T, loInc, hiInc bool, cands []int64) ([]int64, int) {
	if cands == nil {
		switch {
		case loInc && hiInc:
			for i, x := range col {
				if !(x < lo) && !(x > hi) {
					out = append(out, int64(i))
				}
			}
		case loInc:
			for i, x := range col {
				if !(x < lo) && x < hi {
					out = append(out, int64(i))
				}
			}
		case hiInc:
			for i, x := range col {
				if x > lo && !(x > hi) {
					out = append(out, int64(i))
				}
			}
		default:
			for i, x := range col {
				if x > lo && x < hi {
					out = append(out, int64(i))
				}
			}
		}
		return out, -1
	}
	n := uint64(len(col))
	switch {
	case loInc && hiInc:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if x := col[oid]; !(x < lo) && !(x > hi) {
				out = append(out, oid)
			}
		}
	case loInc:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if x := col[oid]; !(x < lo) && x < hi {
				out = append(out, oid)
			}
		}
	case hiInc:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if x := col[oid]; x > lo && !(x > hi) {
				out = append(out, oid)
			}
		}
	default:
		for k, oid := range cands {
			if uint64(oid) >= n {
				return nil, k
			}
			if x := col[oid]; x > lo && x < hi {
				out = append(out, oid)
			}
		}
	}
	return out, -1
}

// Project gathers tail[oid] for every oid in oids, producing a column
// aligned with oids. This is MAL's algebra.leftjoin(cands, col) /
// algebra.projection.
func Project(oids, tail *BAT) (*BAT, error) {
	if oids.kind != OID {
		return nil, fmt.Errorf("storage: project with %s oids", oids.kind)
	}
	var out *BAT
	var bad int
	switch k := tail.kind; {
	case k.usesInts():
		out, bad = gather(k, tail.ints, oids.ints)
	case k == Flt:
		out, bad = gather(k, tail.flts, oids.ints)
	case k == Str:
		out, bad = gather(k, tail.codes, oids.ints)
	default:
		out, bad = gather(k, tail.bools, oids.ints)
	}
	if bad >= 0 {
		return nil, oidRangeErr("project", oids.ints[bad], tail.Len())
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
		gids = groups.ints
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
			return FromInts(Int, sumBy(b.ints, gids, ngroups)), nil
		case AggrMin:
			return FromInts(b.kind, minBy(b.ints, gids, ngroups)), nil
		case AggrMax:
			return FromInts(b.kind, maxBy(b.ints, gids, ngroups)), nil
		case AggrAvg:
			return FromFloats(avgBy(b.ints, gids, ngroups)), nil
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
		less = before(b.ints, asc)
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
