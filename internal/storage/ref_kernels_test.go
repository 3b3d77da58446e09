package storage

import "fmt"

// This file holds the columnar kernels as they stood before the typed
// rewrite (PR 20), verbatim apart from the Ref prefix: the per-row
// comparator (*BAT).cmp, the joinKey struct and the Go maps keyed on it.
// TestKernelsMatchReference and FuzzKernelsAgree hold the kernels in
// ops.go, hash.go and arith.go to these, element for element — the same
// arrangement as RefWriteText in text_test.go.

// cmp compares row i of b against v: -1, 0 or +1. Kinds must be
// compatible (checked by callers); numeric comparisons promote integer
// operands to float when either side is Flt.
func (b *BAT) cmp(i int, v Val) int {
	switch b.kind {
	case Flt:
		f := v.F
		if v.Kind.usesInts() {
			f = float64(v.I)
		}
		switch x := b.flts[i]; {
		case x < f:
			return -1
		case x > f:
			return 1
		}
		return 0
	case Str:
		switch x := b.StrAt(i); {
		case x < v.S:
			return -1
		case x > v.S:
			return 1
		}
		return 0
	case Bool:
		x, y := b.bools[i], v.B
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	default:
		if v.Kind == Flt {
			switch x := float64(b.IntAt(i)); {
			case x < v.F:
				return -1
			case x > v.F:
				return 1
			}
			return 0
		}
		switch x := b.IntAt(i); {
		case x < v.I:
			return -1
		case x > v.I:
			return 1
		}
		return 0
	}
}

func RefThetaSelect(b *BAT, op CmpOp, v Val, cands *BAT) (*BAT, error) {
	if !compatible(b.kind, v) {
		return nil, fmt.Errorf("storage: thetaselect %s against %s operand", b.kind, v.Kind)
	}
	out := New(OID, 0)
	test := func(c int) bool {
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
	if cands == nil {
		for i, n := 0, b.Len(); i < n; i++ {
			if test(b.cmp(i, v)) {
				out.AppendInt(int64(i))
			}
		}
		return out, nil
	}
	if cands.kind != OID {
		return nil, fmt.Errorf("storage: candidate list has kind %s, want oid", cands.kind)
	}
	for _, oid := range cands.Ints() {
		if oid < 0 || int(oid) >= b.Len() {
			return nil, fmt.Errorf("storage: candidate oid %d out of range 0..%d", oid, b.Len()-1)
		}
		if test(b.cmp(int(oid), v)) {
			out.AppendInt(oid)
		}
	}
	return out, nil
}

// RefRangeSelect returns oids of rows with lo <= row <= hi (bound inclusivity
// controlled by loInc/hiInc), restricted to cands when non-nil. This is
// MAL's algebra.select(b, lo, hi).
func RefRangeSelect(b *BAT, lo, hi Val, loInc, hiInc bool, cands *BAT) (*BAT, error) {
	if !compatible(b.kind, lo) || !compatible(b.kind, hi) {
		return nil, fmt.Errorf("storage: select bounds %s/%s against %s column", lo.Kind, hi.Kind, b.kind)
	}
	out := New(OID, 0)
	ok := func(i int) bool {
		cl := b.cmp(i, lo)
		if cl < 0 || (cl == 0 && !loInc) {
			return false
		}
		ch := b.cmp(i, hi)
		if ch > 0 || (ch == 0 && !hiInc) {
			return false
		}
		return true
	}
	if cands == nil {
		for i, n := 0, b.Len(); i < n; i++ {
			if ok(i) {
				out.AppendInt(int64(i))
			}
		}
		return out, nil
	}
	if cands.kind != OID {
		return nil, fmt.Errorf("storage: candidate list has kind %s, want oid", cands.kind)
	}
	for _, oid := range cands.Ints() {
		if oid < 0 || int(oid) >= b.Len() {
			return nil, fmt.Errorf("storage: candidate oid %d out of range", oid)
		}
		if ok(int(oid)) {
			out.AppendInt(oid)
		}
	}
	return out, nil
}

// RefProject gathers tail[oid] for every oid in oids, producing a column
// aligned with oids. This is MAL's algebra.leftjoin(cands, col) /
// algebra.projection.
func RefProject(oids, tail *BAT) (*BAT, error) {
	if oids.kind != OID {
		return nil, fmt.Errorf("storage: project with %s oids", oids.kind)
	}
	out := New(tail.kind, oids.Len())
	n := tail.Len()
	for _, oid := range oids.Ints() {
		if oid < 0 || int(oid) >= n {
			return nil, fmt.Errorf("storage: project oid %d out of range 0..%d", oid, n-1)
		}
	}
	// Typed loops: one kind dispatch per column, not per row.
	switch {
	case tail.kind.usesInts():
		for _, oid := range oids.Ints() {
			out.ints = append(out.ints, tail.IntAt(int(oid)))
		}
	case tail.kind == Flt:
		for _, oid := range oids.Ints() {
			out.flts = append(out.flts, tail.flts[oid])
		}
	case tail.kind == Str:
		for _, oid := range oids.Ints() {
			appendStr(out, tail.StrAt(int(oid)))
		}
	default:
		for _, oid := range oids.Ints() {
			out.bools = append(out.bools, tail.bools[oid])
		}
	}
	return out, nil
}

type joinKey struct {
	i int64
	f float64
	s string
	b bool
}

func (b *BAT) keyAt(i int) joinKey {
	switch {
	case b.kind.usesInts():
		return joinKey{i: b.IntAt(i)}
	case b.kind == Flt:
		return joinKey{f: b.flts[i]}
	case b.kind == Str:
		return joinKey{s: b.StrAt(i)}
	default:
		return joinKey{b: b.bools[i]}
	}
}

// RefJoinHash is the materialized build side of a hash join: the value
// index of one key column. Build once with RefBuildJoinHash, then Probe
// any number of times — probes are read-only, so one RefJoinHash may be
// probed concurrently from multiple goroutines (the partitioned join
// probes every mitosis slice against the same build in parallel).
type RefJoinHash struct {
	idx  map[joinKey][]int64
	kind Kind
}

// RefBuildJoinHash indexes the build-side key column r (MAL's
// algebra.hashbuild). Per-key oid lists keep build order, so probe
// output for equal keys matches the order of a nested-loop join over
// (probe row, build row).
func RefBuildJoinHash(r *BAT) *RefJoinHash {
	idx := make(map[joinKey][]int64, r.Len())
	for i, n := 0, r.Len(); i < n; i++ {
		k := r.keyAt(i)
		idx[k] = append(idx[k], int64(i))
	}
	return &RefJoinHash{idx: idx, kind: r.kind}
}

// Probe matches the probe-side key column l against the build index and
// returns matching oid pairs (aligned probe/build oid BATs), ordered by
// probe oid — the order downstream projections rely on for stable
// results. Safe for concurrent use.
func (h *RefJoinHash) Probe(l *BAT) (lOIDs, rOIDs *BAT, err error) {
	if l.kind != h.kind && !(l.kind.usesInts() && h.kind.usesInts()) {
		return nil, nil, fmt.Errorf("storage: join %s with %s", l.kind, h.kind)
	}
	lo, ro := New(OID, 0), New(OID, 0)
	for i, n := 0, l.Len(); i < n; i++ {
		for _, ri := range h.idx[l.keyAt(i)] {
			lo.AppendInt(int64(i))
			ro.AppendInt(ri)
		}
	}
	return lo, ro, nil
}

// RefGroup assigns a dense group id to each row of b, optionally refining an
// existing grouping (MAL's group.subgroup with a previous groups column).
// It returns the per-row group ids, the extents (the oid of the first row
// of each group), and the number of groups.
func RefGroup(b, prev *BAT) (groups, extents *BAT, ngroups int, err error) {
	n := b.Len()
	if prev != nil && prev.Len() != n {
		return nil, nil, 0, fmt.Errorf("storage: group input %d rows, prev grouping %d rows", n, prev.Len())
	}
	type gkey struct {
		prev int64
		k    joinKey
	}
	ids := make(map[gkey]int64, 64)
	groups = New(OID, n)
	extents = New(OID, 0)
	for i := 0; i < n; i++ {
		var pk int64
		if prev != nil {
			pk = prev.IntAt(i)
		}
		key := gkey{prev: pk, k: b.keyAt(i)}
		id, ok := ids[key]
		if !ok {
			id = int64(len(ids))
			ids[key] = id
			extents.AppendInt(int64(i))
		}
		groups.AppendInt(id)
	}
	return groups, extents, len(ids), nil
}

// RefAggr computes a grouped aggregate of b under the per-row group ids in
// groups (ngroups distinct ids, dense from 0). Sum/avg over integer
// columns yield Int/Flt respectively; count always yields Int. Min/max
// preserve the input kind. A nil groups computes a single global group.
func RefAggr(kind AggrKind, b, groups *BAT, ngroups int) (*BAT, error) {
	n := b.Len()
	if groups == nil {
		g := New(OID, n)
		for i := 0; i < n; i++ {
			g.AppendInt(0)
		}
		groups = g
		ngroups = 1
	}
	if groups.Len() != n {
		return nil, fmt.Errorf("storage: aggr over %d rows with %d group ids", n, groups.Len())
	}
	if kind == AggrCount {
		counts := make([]int64, ngroups)
		for _, g := range groups.Ints() {
			counts[g]++
		}
		return FromInts(Int, counts), nil
	}
	switch b.kind {
	case Flt:
		sums := make([]float64, ngroups)
		mins := make([]float64, ngroups)
		maxs := make([]float64, ngroups)
		counts := make([]int64, ngroups)
		seen := make([]bool, ngroups)
		for i := 0; i < n; i++ {
			g := groups.IntAt(i)
			v := b.flts[i]
			sums[g] += v
			counts[g]++
			if !seen[g] || v < mins[g] {
				mins[g] = v
			}
			if !seen[g] || v > maxs[g] {
				maxs[g] = v
			}
			seen[g] = true
		}
		switch kind {
		case AggrSum:
			return FromFloats(sums), nil
		case AggrMin:
			return FromFloats(mins), nil
		case AggrMax:
			return FromFloats(maxs), nil
		case AggrAvg:
			avgs := make([]float64, ngroups)
			for g := range avgs {
				if counts[g] > 0 {
					avgs[g] = sums[g] / float64(counts[g])
				}
			}
			return FromFloats(avgs), nil
		}
	case Str:
		if kind != AggrMin && kind != AggrMax {
			return nil, fmt.Errorf("storage: %s over string column", kind)
		}
		vals := make([]string, ngroups)
		seen := make([]bool, ngroups)
		for i := 0; i < n; i++ {
			g := groups.IntAt(i)
			v := b.StrAt(i)
			if !seen[g] || (kind == AggrMin && v < vals[g]) || (kind == AggrMax && v > vals[g]) {
				vals[g] = v
			}
			seen[g] = true
		}
		return FromStrings(vals), nil
	case Bool:
		return nil, fmt.Errorf("storage: %s over bool column", kind)
	default: // integer family
		sums := make([]int64, ngroups)
		mins := make([]int64, ngroups)
		maxs := make([]int64, ngroups)
		counts := make([]int64, ngroups)
		seen := make([]bool, ngroups)
		for i := 0; i < n; i++ {
			g := groups.IntAt(i)
			v := b.IntAt(i)
			sums[g] += v
			counts[g]++
			if !seen[g] || v < mins[g] {
				mins[g] = v
			}
			if !seen[g] || v > maxs[g] {
				maxs[g] = v
			}
			seen[g] = true
		}
		switch kind {
		case AggrSum:
			return FromInts(Int, sums), nil
		case AggrMin:
			return FromInts(b.kind, mins), nil
		case AggrMax:
			return FromInts(b.kind, maxs), nil
		case AggrAvg:
			avgs := make([]float64, ngroups)
			for g := range avgs {
				if counts[g] > 0 {
					avgs[g] = float64(sums[g]) / float64(counts[g])
				}
			}
			return FromFloats(avgs), nil
		}
	}
	return nil, fmt.Errorf("storage: unsupported aggregate %s over %s", kind, b.kind)
}

// RefSortOrder returns the permutation of b's oids that orders the column
// ascending (or descending). The sort is stable so multi-key ordering can
// be built by sorting from the least significant key to the most
// significant one, threading the permutation through RefProject.
func RefSortOrder(b *BAT, asc bool) *BAT {
	n := b.Len()
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	less := func(x, y int64) bool {
		var c int
		switch b.kind {
		case Flt:
			switch {
			case b.flts[x] < b.flts[y]:
				c = -1
			case b.flts[x] > b.flts[y]:
				c = 1
			}
		case Str:
			switch {
			case b.StrAt(int(x)) < b.StrAt(int(y)):
				c = -1
			case b.StrAt(int(x)) > b.StrAt(int(y)):
				c = 1
			}
		case Bool:
			switch {
			case !b.bools[x] && b.bools[y]:
				c = -1
			case b.bools[x] && !b.bools[y]:
				c = 1
			}
		default:
			switch {
			case b.IntAt(int(x)) < b.IntAt(int(y)):
				c = -1
			case b.IntAt(int(x)) > b.IntAt(int(y)):
				c = 1
			}
		}
		if asc {
			return c < 0
		}
		return c > 0
	}
	refStableSortInt64(perm, less)
	return FromInts(OID, perm)
}

// refStableSortInt64 is a merge sort over int64 with a custom strict-weak
// ordering; stability is required for multi-key sorts.
func refStableSortInt64(a []int64, less func(x, y int64) bool) {
	if len(a) < 2 {
		return
	}
	buf := make([]int64, len(a))
	refMergeSortInt64(a, buf, less)
}

func refMergeSortInt64(a, buf []int64, less func(x, y int64) bool) {
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
	refMergeSortInt64(a[:mid], buf[:mid], less)
	refMergeSortInt64(a[mid:], buf[mid:], less)
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

func refFltAt(b *BAT, i int) float64 {
	if b.kind == Flt {
		return b.flts[i]
	}
	return float64(b.IntAt(i))
}

// RefArith computes l op r elementwise over equal-length numeric BATs
// (MAL's batcalc.+ etc.). Integer inputs stay integer except for Div,
// which always produces Flt, matching SQL semantics for "/" in this
// reproduction. Division by zero yields 0 with no error, mirroring
// MonetDB's nil-propagation simplified to a zero default.
func RefArith(op ArithOp, l, r *BAT) (*BAT, error) {
	if !isNumeric(l.kind) || !isNumeric(r.kind) {
		return nil, fmt.Errorf("storage: arithmetic over %s and %s", l.kind, r.kind)
	}
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("storage: arithmetic over %d and %d rows", l.Len(), r.Len())
	}
	n := l.Len()
	if op == Div || l.kind == Flt || r.kind == Flt {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := refFltAt(l, i), refFltAt(r, i)
			switch op {
			case Add:
				out[i] = a + b
			case Sub:
				out[i] = a - b
			case Mul:
				out[i] = a * b
			default:
				if b != 0 {
					out[i] = a / b
				}
			}
		}
		return FromFloats(out), nil
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		a, b := l.IntAt(i), r.IntAt(i)
		switch op {
		case Add:
			out[i] = a + b
		case Sub:
			out[i] = a - b
		default:
			out[i] = a * b
		}
	}
	return FromInts(Int, out), nil
}

// RefArithScalar computes b op v (or v op b when flip) elementwise against a
// scalar, MAL's batcalc with one constant operand.
func RefArithScalar(op ArithOp, b *BAT, v Val, flip bool) (*BAT, error) {
	if !isNumeric(b.kind) || !isNumeric(v.Kind) {
		return nil, fmt.Errorf("storage: scalar arithmetic over %s and %s", b.kind, v.Kind)
	}
	n := b.Len()
	scalarF := v.F
	if v.Kind.usesInts() {
		scalarF = float64(v.I)
	}
	if op == Div || b.kind == Flt || v.Kind == Flt {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			a, c := refFltAt(b, i), scalarF
			if flip {
				a, c = c, a
			}
			switch op {
			case Add:
				out[i] = a + c
			case Sub:
				out[i] = a - c
			case Mul:
				out[i] = a * c
			default:
				if c != 0 {
					out[i] = a / c
				}
			}
		}
		return FromFloats(out), nil
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		a, c := b.IntAt(i), v.I
		if flip {
			a, c = c, a
		}
		switch op {
		case Add:
			out[i] = a + c
		case Sub:
			out[i] = a - c
		default:
			out[i] = a * c
		}
	}
	return FromInts(Int, out), nil
}

// RefCompare evaluates l op r elementwise and returns a Bool BAT, MAL's
// batcalc comparison kernels, used for disjunctive predicates that cannot
// be expressed as candidate-list selections.
func RefCompare(op CmpOp, l, r *BAT) (*BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("storage: compare over %d and %d rows", l.Len(), r.Len())
	}
	if l.kind != r.kind && !(isNumeric(l.kind) && isNumeric(r.kind)) {
		return nil, fmt.Errorf("storage: compare %s with %s", l.kind, r.kind)
	}
	n := l.Len()
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		var c int
		switch {
		case l.kind == Str:
			switch {
			case l.StrAt(i) < r.StrAt(i):
				c = -1
			case l.StrAt(i) > r.StrAt(i):
				c = 1
			}
		case l.kind == Bool:
			switch {
			case !l.bools[i] && r.bools[i]:
				c = -1
			case l.bools[i] && !r.bools[i]:
				c = 1
			}
		case l.kind == Flt || r.kind == Flt:
			a, b := refFltAt(l, i), refFltAt(r, i)
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
		default:
			switch {
			case l.IntAt(i) < r.IntAt(i):
				c = -1
			case l.IntAt(i) > r.IntAt(i):
				c = 1
			}
		}
		switch op {
		case EQ:
			out[i] = c == 0
		case NE:
			out[i] = c != 0
		case LT:
			out[i] = c < 0
		case LE:
			out[i] = c <= 0
		case GT:
			out[i] = c > 0
		default:
			out[i] = c >= 0
		}
	}
	return FromBools(out), nil
}

// RefCompareScalar evaluates b op v (or v op b when flip) elementwise and
// returns a Bool BAT, the scalar-operand variant of RefCompare.
func RefCompareScalar(op CmpOp, b *BAT, v Val, flip bool) (*BAT, error) {
	if !compatible(b.kind, v) {
		return nil, fmt.Errorf("storage: compare %s against %s operand", b.kind, v.Kind)
	}
	n := b.Len()
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		c := b.cmp(i, v)
		if flip {
			c = -c
		}
		switch op {
		case EQ:
			out[i] = c == 0
		case NE:
			out[i] = c != 0
		case LT:
			out[i] = c < 0
		case LE:
			out[i] = c <= 0
		case GT:
			out[i] = c > 0
		default:
			out[i] = c >= 0
		}
	}
	return FromBools(out), nil
}

// RefLikeMatch evaluates a SQL LIKE pattern ('%' = any run, '_' = any one
// byte) against every row of a string column, returning a Bool BAT.
func RefLikeMatch(b *BAT, pattern string) (*BAT, error) {
	if b.kind != Str {
		return nil, fmt.Errorf("storage: like over %s", b.kind)
	}
	out := make([]bool, b.Len())
	for i, s := range b.Strs() {
		out[i] = refLikeMatch(s, pattern)
	}
	return FromBools(out), nil
}

// refLikeMatch implements LIKE with iterative backtracking over '%' (the
// classic wildcard-match algorithm, linear in practice).
func refLikeMatch(s, p string) bool {
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
