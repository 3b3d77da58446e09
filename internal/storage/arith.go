package storage

import (
	"fmt"
	"strings"
)

// ArithOp is an elementwise arithmetic operator used by batcalc kernels.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator symbol.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

func isNumeric(k Kind) bool { return k == Flt || k.usesInts() }

// Arith computes l op r elementwise over equal-length numeric BATs
// (MAL's batcalc.+ etc.). Integer inputs stay integer except for Div,
// which always produces Flt, matching SQL semantics for "/" in this
// reproduction; any Flt operand promotes the result to Flt. Division by
// zero yields 0 with no error, mirroring MonetDB's nil-propagation
// simplified to a zero default.
func Arith(op ArithOp, l, r *BAT) (*BAT, error) {
	if !isNumeric(l.kind) || !isNumeric(r.kind) {
		return nil, fmt.Errorf("storage: arithmetic over %s and %s", l.kind, r.kind)
	}
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("storage: arithmetic over %d and %d rows", l.Len(), r.Len())
	}
	if op == Div {
		a, b := l.floats(), r.floats()
		out := make([]float64, len(a))
		for i, y := range b {
			if y != 0 {
				out[i] = a[i] / y
			}
		}
		return FromFloats(out), nil
	}
	if l.kind == Flt || r.kind == Flt {
		return FromFloats(arithCols(op, l.floats(), r.floats())), nil
	}
	return FromInts(Int, arithCols(op, l.ints, r.ints)), nil
}

// arithCols is the Add/Sub/Mul loop over two aligned typed arrays, the
// operator decided before the loop.
func arithCols[T int64 | float64](op ArithOp, a, b []T) []T {
	out := make([]T, len(a))
	switch op {
	case Add:
		for i, y := range b {
			out[i] = a[i] + y
		}
	case Sub:
		for i, y := range b {
			out[i] = a[i] - y
		}
	default:
		for i, y := range b {
			out[i] = a[i] * y
		}
	}
	return out
}

// ArithScalar computes b op v (or v op b when flip) elementwise against a
// scalar, MAL's batcalc with one constant operand.
func ArithScalar(op ArithOp, b *BAT, v Val, flip bool) (*BAT, error) {
	if !isNumeric(b.kind) || !isNumeric(v.Kind) {
		return nil, fmt.Errorf("storage: scalar arithmetic over %s and %s", b.kind, v.Kind)
	}
	if op == Div {
		col, c := b.floats(), v.flt()
		out := make([]float64, len(col))
		switch {
		case flip:
			for i, x := range col {
				if x != 0 {
					out[i] = c / x
				}
			}
		case c != 0:
			for i, x := range col {
				out[i] = x / c
			}
		}
		return FromFloats(out), nil
	}
	if b.kind == Flt || v.Kind == Flt {
		return FromFloats(arithScalar(op, b.floats(), v.flt(), flip)), nil
	}
	return FromInts(Int, arithScalar(op, b.ints, v.I, flip)), nil
}

// arithScalar is the Add/Sub/Mul loop against a constant. Addition and
// multiplication commute exactly, in int64 and in IEEE float64 alike, so
// flip only picks a loop for Sub.
func arithScalar[T int64 | float64](op ArithOp, col []T, c T, flip bool) []T {
	out := make([]T, len(col))
	switch {
	case op == Add:
		for i, x := range col {
			out[i] = x + c
		}
	case op == Sub && flip:
		for i, x := range col {
			out[i] = c - x
		}
	case op == Sub:
		for i, x := range col {
			out[i] = x - c
		}
	default:
		for i, x := range col {
			out[i] = x * c
		}
	}
	return out
}

// Compare evaluates l op r elementwise and returns a Bool BAT, MAL's
// batcalc comparison kernels, used for disjunctive predicates that cannot
// be expressed as candidate-list selections.
func Compare(op CmpOp, l, r *BAT) (*BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("storage: compare over %d and %d rows", l.Len(), r.Len())
	}
	if l.kind != r.kind && !(isNumeric(l.kind) && isNumeric(r.kind)) {
		return nil, fmt.Errorf("storage: compare %s with %s", l.kind, r.kind)
	}
	switch {
	case l.kind == Str:
		both := oneDict([]*BAT{l, r})
		return FromBools(compareCols(op, both[0].codes, both[1].codes)), nil
	case l.kind == Bool:
		var pass [2][2]bool
		for _, x := range []bool{false, true} {
			for _, y := range []bool{false, true} {
				pass[bit(x)][bit(y)] = op.holds(cmpBool(x, y))
			}
		}
		out := make([]bool, len(l.bools))
		for i, y := range r.bools {
			out[i] = pass[bit(l.bools[i])][bit(y)]
		}
		return FromBools(out), nil
	case l.kind == Flt || r.kind == Flt:
		return FromBools(compareCols(op, l.floats(), r.floats())), nil
	default:
		return FromBools(compareCols(op, l.ints, r.ints)), nil
	}
}

func bit(x bool) int {
	if x {
		return 1
	}
	return 0
}

// compareCols is the comparison loop over two aligned typed arrays, one
// loop per operator, under the three-way rule spelled out at ordered.
func compareCols[T ordered](op CmpOp, a, b []T) []bool {
	out := make([]bool, len(a))
	switch op {
	case EQ:
		for i, y := range b {
			x := a[i]
			out[i] = x == y || x != x || y != y
		}
	case NE:
		for i, y := range b {
			x := a[i]
			out[i] = x != y && x == x && y == y
		}
	case LT:
		for i, y := range b {
			out[i] = a[i] < y
		}
	case LE:
		for i, y := range b {
			out[i] = !(a[i] > y)
		}
	case GT:
		for i, y := range b {
			out[i] = a[i] > y
		}
	default:
		for i, y := range b {
			out[i] = !(a[i] < y)
		}
	}
	return out
}

// BoolCombine computes the elementwise AND/OR of two Bool BATs.
func BoolCombine(and bool, l, r *BAT) (*BAT, error) {
	if l.kind != Bool || r.kind != Bool {
		return nil, fmt.Errorf("storage: boolean combine over %s and %s", l.kind, r.kind)
	}
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("storage: boolean combine over %d and %d rows", l.Len(), r.Len())
	}
	out := make([]bool, l.Len())
	if and {
		for i, y := range r.bools {
			out[i] = l.bools[i] && y
		}
	} else {
		for i, y := range r.bools {
			out[i] = l.bools[i] || y
		}
	}
	return FromBools(out), nil
}

// SelectTrue returns the oids of true rows in a Bool BAT, bridging
// elementwise predicates back into candidate lists. One pass counts the
// true cells and a second fills a buffer of exactly that size.
func SelectTrue(b *BAT) (*BAT, error) {
	if b.kind != Bool {
		return nil, fmt.Errorf("storage: selectTrue over %s", b.kind)
	}
	n := 0
	for _, v := range b.bools {
		if v {
			n++
		}
	}
	out, bk := take[int64](n)
	at := 0
	for i, v := range b.bools {
		if v {
			out[at] = int64(i)
			at++
		}
	}
	return wrap(OID, out, bk), nil
}

// CompareScalar evaluates b op v (or v op b when flip) elementwise and
// returns a Bool BAT, the scalar-operand variant of Compare.
func CompareScalar(op CmpOp, b *BAT, v Val, flip bool) (*BAT, error) {
	if !compatible(b.kind, v) {
		return nil, fmt.Errorf("storage: compare %s against %s operand", b.kind, v.Kind)
	}
	if flip {
		op = op.swapped()
	}
	switch {
	case b.kind == Str:
		op, code := b.dict.codeOp(op, v.S)
		return FromBools(compareScalar(op, b.codes, code)), nil
	case b.kind == Bool:
		return FromBools(tabulate(b.bools, op.holds(cmpBool(false, v.B)), op.holds(cmpBool(true, v.B)))), nil
	case b.kind == Flt || v.Kind == Flt:
		return FromBools(compareScalar(op, b.floats(), v.flt())), nil
	default:
		return FromBools(compareScalar(op, b.ints, v.I)), nil
	}
}

// tabulate maps a Bool column through a predicate given by its value on
// false cells and on true cells.
func tabulate(col []bool, onFalse, onTrue bool) []bool {
	out := make([]bool, len(col))
	for i, x := range col {
		out[i] = (x && onTrue) || (!x && onFalse)
	}
	return out
}

// compareScalar is the comparison loop of a typed array against a
// constant, one loop per operator (three-way rule: see ordered).
func compareScalar[T ordered](op CmpOp, col []T, v T) []bool {
	out := make([]bool, len(col))
	switch op.against(v != v) {
	case EQ:
		for i, x := range col {
			out[i] = x == v || x != x
		}
	case NE:
		for i, x := range col {
			out[i] = x != v && x == x
		}
	case LT:
		for i, x := range col {
			out[i] = x < v
		}
	case LE:
		for i, x := range col {
			out[i] = !(x > v)
		}
	case GT:
		for i, x := range col {
			out[i] = x > v
		}
	default:
		for i, x := range col {
			out[i] = !(x < v)
		}
	}
	return out
}

// Between evaluates lo <= b <= hi elementwise, both bounds inclusive,
// and returns a Bool BAT: MAL's batcalc.between with scalar bounds, both
// compared in one pass over the column.
func Between(b *BAT, lo, hi Val) (*BAT, error) {
	if !compatible(b.kind, lo) || !compatible(b.kind, hi) {
		return nil, fmt.Errorf("storage: between bounds %s/%s against %s column", lo.Kind, hi.Kind, b.kind)
	}
	switch {
	case b.kind == Str:
		a, z := b.dict.codeRange(lo.S, hi.S, true, true)
		out := make([]bool, len(b.codes))
		for i, c := range b.codes {
			out[i] = c >= a && c < z
		}
		return FromBools(out), nil
	case b.kind == Bool:
		in := func(x bool) bool { return cmpBool(x, lo.B) >= 0 && cmpBool(x, hi.B) <= 0 }
		return FromBools(tabulate(b.bools, in(false), in(true))), nil
	case b.kind.usesInts() && (lo.Kind == Flt) != (hi.Kind == Flt):
		// One bound compares in int64, the other in float64 (see
		// RangeSelect): two exact passes and an and.
		ge, err := CompareScalar(GE, b, lo, false)
		if err != nil {
			return nil, err
		}
		le, err := CompareScalar(LE, b, hi, false)
		if err != nil {
			return nil, err
		}
		return BoolCombine(true, ge, le)
	case b.kind == Flt || lo.Kind == Flt:
		return FromBools(between(b.floats(), lo.flt(), hi.flt())), nil
	default:
		return FromBools(between(b.ints, lo.I, hi.I)), nil
	}
}

func between[T ordered](col []T, lo, hi T) []bool {
	out := make([]bool, len(col))
	for i, x := range col {
		out[i] = !(x < lo) && !(x > hi)
	}
	return out
}

// BoolNot negates a Bool BAT elementwise.
func BoolNot(b *BAT) (*BAT, error) {
	if b.kind != Bool {
		return nil, fmt.Errorf("storage: not over %s", b.kind)
	}
	out := make([]bool, b.Len())
	for i, v := range b.bools {
		out[i] = !v
	}
	return FromBools(out), nil
}

// LikeMatch evaluates a SQL LIKE pattern ('%' = any run, '_' = any one
// byte) against every row of a string column, returning a Bool BAT. The
// pattern is tested once per dictionary entry and the rows look their
// code up — unless the dictionary is larger than the column (a slice of
// a high-cardinality column), when the rows' strings are tested. A
// pattern whose only wildcards are a leading and/or trailing '%' — the
// usual prefix, suffix and contains tests — is recognised once and runs
// as that test; anything else goes through the general matcher.
func LikeMatch(b *BAT, pattern string) (*BAT, error) {
	if b.kind != Str {
		return nil, fmt.Errorf("storage: like over %s", b.kind)
	}
	rows := b.dict.Len() > len(b.codes)
	strs := b.dict.strs
	if rows {
		strs = b.Strs()
	}
	pass := make([]bool, len(strs))
	lit := strings.TrimSuffix(strings.TrimPrefix(pattern, "%"), "%")
	open, closed := strings.HasPrefix(pattern, "%"), strings.HasSuffix(pattern, "%")
	switch {
	case strings.ContainsAny(lit, "%_"):
		for i, s := range strs {
			pass[i] = likeMatch(s, pattern)
		}
	case open && closed:
		for i, s := range strs {
			pass[i] = strings.Contains(s, lit)
		}
	case open:
		for i, s := range strs {
			pass[i] = strings.HasSuffix(s, lit)
		}
	case closed:
		for i, s := range strs {
			pass[i] = strings.HasPrefix(s, lit)
		}
	default:
		for i, s := range strs {
			pass[i] = s == lit
		}
	}
	if rows {
		return FromBools(pass), nil
	}
	out := make([]bool, len(b.codes))
	for i, c := range b.codes {
		out[i] = pass[c]
	}
	return FromBools(out), nil
}

// likeMatch implements LIKE with iterative backtracking over '%' (the
// classic wildcard-match algorithm, linear in practice).
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
