package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential harness: checkKernels runs every rewritten kernel and
// its reference (ref_kernels_test.go) on one set of inputs and demands
// the same BATs element for element — oid order within a join key and
// group-id numbering included — or the same error. The table test feeds
// it every kind pairing plus the hard cases; FuzzKernelsAgree feeds it
// whatever the fuzzer decodes.

var (
	allKinds  = []Kind{Int, Flt, Str, Bool, Date, OID}
	allCmps   = []CmpOp{EQ, NE, LT, LE, GT, GE}
	allAriths = []ArithOp{Add, Sub, Mul, Div}
	allAggrs  = []AggrKind{AggrSum, AggrCount, AggrMin, AggrMax, AggrAvg, AggrKind(9)}
)

// Value domains are small, so equal keys, equal cells and operands that
// hit a cell are common, and they carry each kind's edge values.
var (
	intDomain = []int64{0, 1, -1, 2, 3, 7, 100, 1 << 11, 2 << 11, 3 << 11, 1 << 16, 1 << 53, 1<<53 + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	fltDomain = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3, 100, 1 << 53, 0.05, 0.07, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, float64(math.MinInt64), float64(math.MaxInt64)}
	strDomain = []string{"", "a", "ab", "abc", "b", "ba", "PROMO BRUSHED", "PROMO", "BRUSHED", "%", "_", "a%", "MAIL", "SHIP", "\x00", "ab\x00"}
)

func domainValue(k Kind, i int) Val {
	switch {
	case k == Flt:
		return FltVal(fltDomain[i%len(fltDomain)])
	case k == Str:
		return StrVal(strDomain[i%len(strDomain)])
	case k == Bool:
		return BoolVal(i%2 == 1)
	default:
		return Val{Kind: k, I: intDomain[i%len(intDomain)]}
	}
}

// appendVal appends v to a BAT of v's kind.
func appendVal(b *BAT, v Val) {
	switch {
	case v.Kind == Flt:
		b.AppendFlt(v.F)
	case v.Kind == Str:
		appendStr(b, v.S)
	case v.Kind == Bool:
		b.AppendBool(v.B)
	default:
		b.AppendInt(v.I)
	}
}

// The ways two string columns can stand to each other's dictionaries;
// the kernels must return the same strings under every one.
const (
	ownDicts    = iota // each column's own, built as its cells came
	sharedDict         // one, as for two projections of one column
	equalDicts         // two objects holding the same strings
	paddedDicts        // two that differ, with entries no row uses
	numDictShapes
)

// withDict re-encodes a Str BAT over d, which holds all its strings.
func withDict(b *BAT, d *Dict) *BAT {
	codes := make([]uint32, b.Len())
	for i := range codes {
		code, ok := d.find(b.StrAt(i))
		if !ok {
			panic("withDict: string outside the dictionary")
		}
		codes[i] = code
	}
	return FromCodes(d, codes)
}

// dictUnion returns a dictionary of b's strings and extra.
func dictUnion(b *BAT, extra ...string) *Dict {
	return FromStrings(append(b.Strs(), extra...)).dict
}

// shapeDicts re-encodes a and b, either of which may be another kind,
// into the dictionary shape given. Unused entries go below, between and
// above the domain's strings, so the same string has different codes.
func shapeDicts(a, b *BAT, shape int) (*BAT, *BAT) {
	str := func(x *BAT) bool { return x.kind == Str }
	switch {
	case shape == paddedDicts:
		if str(a) {
			a = withDict(a, dictUnion(a, "\x01unused", "aa", "zz"))
		}
		if str(b) {
			b = withDict(b, dictUnion(b, "0", "PROMO A", "b\x00"))
		}
	case !str(a) || !str(b):
	case shape == sharedDict, shape == equalDicts:
		both, err := Concat([]*BAT{a, b})
		if err != nil {
			panic(err)
		}
		a, b = both.Slice(0, a.Len()), both.Slice(a.Len(), both.Len())
		if shape == equalDicts {
			a = withDict(a, dictUnion(both))
		}
	}
	return a, b
}

// randColumn draws n cells of kind k from the first span values of its
// domain (a small span makes long duplicate chains).
func randColumn(rng *rand.Rand, k Kind, n, span int) *BAT {
	b := New(k, n)
	for i := 0; i < n; i++ {
		appendVal(b, domainValue(k, rng.Intn(span)))
	}
	return b
}

func sameCell(a, b *BAT, i int) bool {
	switch {
	case a.kind == Flt:
		x, y := a.flts[i], b.flts[i]
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	case a.kind == Str:
		return a.StrAt(i) == b.StrAt(i)
	case a.kind == Bool:
		return a.bools[i] == b.bools[i]
	default:
		return a.ints[i] == b.ints[i]
	}
}

// sameBAT reports the first difference between two BATs, or "".
func sameBAT(got, want *BAT) string {
	switch {
	case got == nil || want == nil:
		if got != want {
			return fmt.Sprintf("got %v, want %v", got, want)
		}
		return ""
	case got.kind != want.kind:
		return fmt.Sprintf("kind %s, want %s", got.kind, want.kind)
	case got.Len() != want.Len():
		return fmt.Sprintf("%d rows, want %d", got.Len(), want.Len())
	}
	for i, n := 0, got.Len(); i < n; i++ {
		if !sameCell(got, want, i) {
			return fmt.Sprintf("row %d differs (of %d)", i, n)
		}
	}
	return ""
}

// agree fails the test unless the kernel and its reference returned the
// same BATs, or both failed with the same message. wantErr overrides the
// reference's message where this PR deliberately changed it.
func agree(tb testing.TB, label string, got []*BAT, gotErr error, want []*BAT, refErr error, wantErr ...string) {
	tb.Helper()
	if (gotErr == nil) != (refErr == nil) {
		tb.Fatalf("%s: error %v, reference %v", label, gotErr, refErr)
	}
	if gotErr != nil {
		msg := refErr.Error()
		if len(wantErr) > 0 {
			msg = wantErr[0]
		}
		if gotErr.Error() != msg {
			tb.Fatalf("%s: error %q, want %q", label, gotErr, msg)
		}
		return
	}
	for i := range want {
		if why := sameBAT(got[i], want[i]); why != "" {
			tb.Fatalf("%s: output %d: %s", label, i, why)
		}
	}
}

func bats(b ...*BAT) []*BAT { return b }

// kernelInputs is one differential case: two columns, two operands, a
// candidate list (nil = none) and a LIKE pattern.
type kernelInputs struct {
	a, b    *BAT
	v, w    Val
	cands   *BAT
	pattern string
}

func (in kernelInputs) String() string {
	cl := "nil"
	if in.cands != nil {
		cl = fmt.Sprintf("%s%v", in.cands.kind, in.cands.ints)
	}
	return fmt.Sprintf("a=%s[%d] b=%s[%d] v=%s:%s w=%s:%s cands=%s like=%q",
		in.a.kind, in.a.Len(), in.b.kind, in.b.Len(), in.v.Kind, in.v, in.w.Kind, in.w, cl, in.pattern)
}

// checkKernels holds every kernel to its reference on in.
func checkKernels(tb testing.TB, in kernelInputs) {
	tb.Helper()
	a, b, v, w := in.a, in.b, in.v, in.w
	id := in.String()
	candSets := []*BAT{nil}
	if in.cands != nil {
		candSets = append(candSets, in.cands)
	}

	for _, op := range allCmps {
		for _, cands := range candSets {
			got, err := ThetaSelect(a, op, v, cands)
			want, rerr := RefThetaSelect(a, op, v, cands)
			agree(tb, fmt.Sprintf("ThetaSelect %s cands=%t [%s]", op, cands != nil, id), bats(got), err, bats(want), rerr)
		}
		for _, flip := range []bool{false, true} {
			got, err := CompareScalar(op, a, v, flip)
			want, rerr := RefCompareScalar(op, a, v, flip)
			agree(tb, fmt.Sprintf("CompareScalar %s flip=%t [%s]", op, flip, id), bats(got), err, bats(want), rerr)
		}
		got, err := Compare(op, a, b)
		want, rerr := RefCompare(op, a, b)
		agree(tb, fmt.Sprintf("Compare %s [%s]", op, id), bats(got), err, bats(want), rerr)
	}

	for inc := 0; inc < 4; inc++ {
		loInc, hiInc := inc&1 != 0, inc&2 != 0
		for _, cands := range candSets {
			got, err := RangeSelect(a, v, w, loInc, hiInc, cands)
			want, rerr := RefRangeSelect(a, v, w, loInc, hiInc, cands)
			label := fmt.Sprintf("RangeSelect %t/%t cands=%t [%s]", loInc, hiInc, cands != nil, id)
			if rerr != nil && cands != nil && cands.kind == OID && compatible(a.kind, v) && compatible(a.kind, w) {
				// Fix (b): the reference's message stops at "out of range".
				agree(tb, label, nil, err, nil, rerr, fmt.Sprintf("%s 0..%d", rerr, a.Len()-1))
				continue
			}
			agree(tb, label, bats(got), err, bats(want), rerr)
		}
	}
	{
		// batcalc.between was two compares and an and.
		got, err := Between(a, v, w)
		var want *BAT
		ge, rerr := RefCompareScalar(GE, a, v, false)
		if rerr == nil {
			var le *BAT
			if le, rerr = RefCompareScalar(LE, a, w, false); rerr == nil {
				want, rerr = BoolCombine(true, ge, le)
			}
		}
		if (err == nil) != (rerr == nil) {
			tb.Fatalf("Between [%s]: error %v, reference %v", id, err, rerr)
		}
		if err == nil {
			agree(tb, "Between ["+id+"]", bats(got), nil, bats(want), nil)
		}
	}

	if in.cands != nil {
		for _, tail := range []*BAT{a, b} {
			got, err := Project(in.cands, tail)
			want, rerr := RefProject(in.cands, tail)
			agree(tb, "Project ["+id+"]", bats(got), err, bats(want), rerr)
		}
	}

	for _, side := range [][2]*BAT{{a, b}, {b, a}} {
		l, r := side[0], side[1]
		gl, gr, err := HashJoin(l, r)
		wl, wr, rerr := RefHashJoin(l, r)
		agree(tb, fmt.Sprintf("HashJoin %s/%s [%s]", l.kind, r.kind, id), bats(gl, gr), err, bats(wl, wr), rerr)
	}
	{
		// One build, probed twice: the second probe sees the same index.
		h, rh := BuildJoinHash(b), RefBuildJoinHash(b)
		for i := 0; i < 2; i++ {
			gl, gr, err := h.Probe(a)
			wl, wr, rerr := rh.Probe(a)
			agree(tb, "Probe ["+id+"]", bats(gl, gr), err, bats(wl, wr), rerr)
		}
	}

	ga, ea, na, err := Group(a, nil)
	wga, wea, wna, rerr := RefGroup(a, nil)
	agree(tb, "Group ["+id+"]", bats(ga, ea), err, bats(wga, wea), rerr)
	if na != wna {
		tb.Fatalf("Group [%s]: %d groups, want %d", id, na, wna)
	}
	{
		// Refinement: b under a's grouping (an error when lengths differ).
		gb, eb, nb, err := Group(b, ga)
		wgb, web, wnb, rerr := RefGroup(b, wga)
		agree(tb, "Group refine ["+id+"]", bats(gb, eb), err, bats(wgb, web), rerr)
		if nb != wnb {
			tb.Fatalf("Group refine [%s]: %d groups, want %d", id, nb, wnb)
		}
	}

	gb, _, nb, _ := RefGroup(b, nil)
	for _, kind := range allAggrs {
		got, err := Aggr(kind, a, nil, 0)
		want, rerr := RefAggr(kind, a, nil, 0)
		agree(tb, fmt.Sprintf("Aggr %s global [%s]", kind, id), bats(got), err, bats(want), rerr)
		got, err = Aggr(kind, a, gb, nb)
		want, rerr = RefAggr(kind, a, gb, nb)
		agree(tb, fmt.Sprintf("Aggr %s grouped [%s]", kind, id), bats(got), err, bats(want), rerr)
	}

	for _, asc := range []bool{true, false} {
		agree(tb, fmt.Sprintf("SortOrder asc=%t [%s]", asc, id), bats(SortOrder(a, asc)), nil, bats(RefSortOrder(a, asc)), nil)
	}

	for _, op := range allAriths {
		got, err := Arith(op, a, b)
		want, rerr := RefArith(op, a, b)
		agree(tb, fmt.Sprintf("Arith %s [%s]", op, id), bats(got), err, bats(want), rerr)
		for _, flip := range []bool{false, true} {
			got, err := ArithScalar(op, a, v, flip)
			want, rerr := RefArithScalar(op, a, v, flip)
			agree(tb, fmt.Sprintf("ArithScalar %s flip=%t [%s]", op, flip, id), bats(got), err, bats(want), rerr)
		}
	}

	got, err := LikeMatch(a, in.pattern)
	want, rerr := RefLikeMatch(a, in.pattern)
	agree(tb, "LikeMatch ["+id+"]", bats(got), err, bats(want), rerr)
}

// candidateShapes are the candidate lists every case runs under, for a
// column of n rows: none, ascending, unsorted, duplicated, empty (nil and
// non-nil backing array), out of range either way, and of a wrong kind.
func candidateShapes(rng *rand.Rand, n int) []*BAT {
	var sorted, unsorted, dup []int64
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			sorted = append(sorted, int64(i))
		}
	}
	if n > 0 {
		for i := 0; i < n; i++ {
			unsorted = append(unsorted, int64(rng.Intn(n)))
		}
		for i := 0; i < 6; i++ {
			dup = append(dup, int64(n/2), int64(n-1))
		}
	}
	return []*BAT{
		nil,
		FromInts(OID, sorted),
		FromInts(OID, unsorted),
		FromInts(OID, dup),
		FromInts(OID, nil),
		New(OID, 0),
		FromInts(OID, append(append([]int64(nil), sorted...), int64(n))),
		FromInts(OID, append([]int64{0, -1}, sorted...)),
		FromInts(OID, []int64{math.MinInt64}),
		FromInts(Int, sorted),
	}
}

var likePatterns = []string{"", "%", "%%", "a", "a%", "%a", "%a%", "PROMO%", "%BRUSHED", "%O B%", "a_", "_", "%_", "a%c", "%a%b%", "ab\x00"}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{0, 1, 2, 37, 300}
	step := 0
	for _, ka := range allKinds {
		for _, kb := range allKinds {
			for _, n := range sizes {
				a := randColumn(rng, ka, n, 1+rng.Intn(24))
				nb := n
				if step%11 == 10 {
					nb = n + 1 // unequal lengths: the binary kernels' error path
				}
				b := randColumn(rng, kb, nb, 1+rng.Intn(24))
				a, b = shapeDicts(a, b, step%numDictShapes)
				shapes := candidateShapes(rng, n)
				// Operand kinds: the column's own, then every other kind
				// in turn (int-vs-float promotion both ways, and the
				// incompatible pairings' errors).
				for i, cands := range shapes {
					kv, kw := ka, ka
					if i%3 == 1 {
						kv = allKinds[(step+i)%len(allKinds)]
					}
					if i%4 == 2 {
						kw = allKinds[(step+2*i)%len(allKinds)]
					}
					checkKernels(t, kernelInputs{
						a: a, b: b,
						v: domainValue(kv, rng.Intn(24)), w: domainValue(kw, rng.Intn(24)),
						cands: cands, pattern: likePatterns[(step+i)%len(likePatterns)],
					})
				}
				step++
			}
		}
	}
}

// hardKeyColumns are the join and grouping keys the table layout could
// get wrong: one long chain, keys that are multiples of the table size
// (and so share their low bits), the extreme integers, empty strings,
// both float zeros (equal keys) and NaN (never equal, not even to
// itself).
func hardKeyColumns() map[string][2]*BAT {
	const n = 1000 // the build table has 2048 slots
	allEqual, multiples, extremes := make([]int64, n), make([]int64, n), make([]int64, n)
	zeros, nans := make([]float64, n), make([]float64, n)
	empties := make([]string, n)
	for i := 0; i < n; i++ {
		allEqual[i] = 42
		multiples[i] = int64(i%50) * 2048
		extremes[i] = []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1}[i%5]
		zeros[i] = []float64{0, math.Copysign(0, -1), 1}[i%3]
		nans[i] = []float64{math.NaN(), 1, math.Float64frombits(0x7FF8000000000000 | uint64(i)), math.Float64frombits(0x7FF8000100000000 | uint64(i))}[i%4]
		if i%3 != 0 {
			empties[i] = "x"
		}
	}
	probeInts := make([]int64, 300)
	for i := range probeInts {
		probeInts[i] = []int64{42, 0, 2048, 98 * 1024, math.MinInt64, math.MaxInt64, -1, 7}[i%8]
	}
	probeFlts := make([]float64, 300)
	for i := range probeFlts {
		probeFlts[i] = []float64{math.Copysign(0, -1), 0, math.NaN(), 1, 2}[i%5]
	}
	probeStrs := make([]string, 300)
	for i := range probeStrs {
		probeStrs[i] = []string{"", "x", "y"}[i%3]
	}
	return map[string][2]*BAT{
		"all-equal":       {FromInts(Int, allEqual), FromInts(Int, probeInts)},
		"table-multiples": {FromInts(Int, multiples), FromInts(Int, probeInts)},
		"extremes":        {FromInts(Int, extremes), FromInts(Date, probeInts)},
		"float-zeros":     {FromFloats(zeros), FromFloats(probeFlts)},
		"float-nans":      {FromFloats(nans), FromFloats(probeFlts)},
		"empty-strings":   {FromStrings(empties), FromStrings(probeStrs)},
	}
}

func TestKernelsMatchReferenceHardKeys(t *testing.T) {
	for name, cols := range hardKeyColumns() {
		build, probe := cols[0], cols[1]
		t.Run(name, func(t *testing.T) {
			gl, gr, err := HashJoin(probe, build)
			wl, wr, rerr := RefHashJoin(probe, build)
			agree(t, "HashJoin", bats(gl, gr), err, bats(wl, wr), rerr)
			if name == "float-zeros" && gl.Len() == 0 {
				t.Fatal("+0 and -0 no longer join")
			}
			if name == "float-nans" {
				for _, oid := range gl.ints {
					if f := probe.flts[oid]; f != f {
						t.Fatalf("probe row %d is NaN and matched", oid)
					}
				}
			}
			g, e, n, err := Group(build, nil)
			wg, we, wn, rerr := RefGroup(build, nil)
			agree(t, "Group", bats(g, e), err, bats(wg, we), rerr)
			if n != wn {
				t.Fatalf("%d groups, want %d", n, wn)
			}
			// Refine the probe-shaped prefix of the build column under a
			// grouping of the probe column: pairs, with growth.
			pg, _, _, _ := RefGroup(probe, nil)
			head := build.Slice(0, probe.Len())
			g, e, n, err = Group(head, pg)
			wg, we, wn, rerr = RefGroup(head, pg)
			agree(t, "Group refine", bats(g, e), err, bats(wg, we), rerr)
			if n != wn {
				t.Fatalf("refined: %d groups, want %d", n, wn)
			}
		})
	}
}

// TestKernelFixes pins the small fixes that rode along with the rewrite.
func TestKernelFixes(t *testing.T) {
	col := FromInts(Int, []int64{5, 6, 7})
	bad := FromInts(OID, []int64{1, 3})

	// (b) one message shape for an oid outside the column.
	const want = "storage: candidate oid 3 out of range 0..2"
	if _, err := RangeSelect(col, IntVal(0), IntVal(9), true, true, bad); err == nil || err.Error() != want {
		t.Errorf("RangeSelect: %v, want %s", err, want)
	}
	if _, err := ThetaSelect(col, EQ, IntVal(5), bad); err == nil || err.Error() != want {
		t.Errorf("ThetaSelect: %v, want %s", err, want)
	}
	if _, err := Project(bad, col); err == nil || err.Error() != "storage: project oid 3 out of range 0..2" {
		t.Errorf("Project: %v", err)
	}

	// (c) int32 row references: a build side they cannot address is an
	// error on every probe, not a wrapped index.
	if err := checkRows("join build side", maxRows); err != nil {
		t.Errorf("%d rows refused: %v", maxRows, err)
	}
	if err := checkRows("join build side", maxRows+1); err == nil {
		t.Errorf("%d rows accepted", maxRows+1)
	}
	h := &JoinHash{kind: Int, err: checkRows("join build side", maxRows+1)}
	if _, _, err := h.Probe(col); err == nil {
		t.Error("probe of a refused build succeeded")
	}

	// (d) a global aggregate builds no group column: one result slice and
	// its header for count and sum, however many rows.
	big := FromFloats(make([]float64, 1<<16))
	for _, kind := range []AggrKind{AggrCount, AggrSum, AggrMin, AggrMax} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Aggr(kind, big, nil, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("global %s over %d rows: %.0f allocations, want at most 2", kind, big.Len(), allocs)
		}
	}
}

// fuzzInputs decodes one differential case from fuzzer bytes. Cells and
// operands are domain values picked by a byte (so collisions, edge values
// and NaN all occur), the second column is sometimes a row shorter, and
// candidates are raw signed bytes — in range, out of range and negative.
// Shape bits 3 and 4 pick how string columns hold their dictionaries.
func fuzzInputs(data []byte) kernelInputs {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	ka, kb := allKinds[next()%len(allKinds)], allKinds[next()%len(allKinds)]
	kv, kw := allKinds[next()%len(allKinds)], allKinds[next()%len(allKinds)]
	shape := next()
	n := next() % 48
	in := kernelInputs{
		a: New(ka, n), b: New(kb, n),
		v: domainValue(kv, next()), w: domainValue(kw, next()),
		pattern: likePatterns[next()%len(likePatterns)],
	}
	for i := 0; i < n; i++ {
		appendVal(in.a, domainValue(ka, next()))
	}
	for i := 0; i < n-shape&1; i++ {
		appendVal(in.b, domainValue(kb, next()))
	}
	in.a, in.b = shapeDicts(in.a, in.b, shape>>3&3)
	if shape&2 != 0 {
		in.cands = New(OID, 0)
		if shape&4 != 0 {
			in.cands.kind = Int
		}
		for pos < len(data) {
			in.cands.AppendInt(int64(int8(next())))
		}
	}
	return in
}

// FuzzKernelsAgree: whatever the bytes decode to, every kernel returns
// what its reference returns — same output or same error, no panic.
func FuzzKernelsAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 5, 3, 4, 0, 1, 1, 2, 3, 1, 1, 1, 2, 3, 1, 0, 4, 2, 200, 5})
	// The table test's hard cases, as bytes: all-equal keys, both float
	// zeros, NaN (fltDomain[15]), the extreme integers (intDomain[13..16]),
	// empty strings, multiples of a table size (intDomain[7..9]).
	f.Add([]byte{0, 0, 0, 0, 2, 8, 5, 5, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0, 1, 2, 3})
	f.Add([]byte{1, 1, 1, 1, 2, 6, 0, 1, 1, 0, 1, 0, 1, 15, 2, 1, 0, 15, 15, 0, 2, 0, 1, 5, 250})
	f.Add([]byte{0, 4, 0, 1, 0, 6, 13, 15, 2, 13, 14, 15, 16, 13, 0, 13, 16, 15, 14, 0, 0})
	f.Add([]byte{2, 2, 2, 2, 6, 5, 0, 1, 4, 0, 0, 1, 0, 12, 0, 1, 0, 0, 12, 0, 1, 2, 3, 4, 9})
	f.Add([]byte{5, 0, 0, 1, 3, 6, 7, 9, 6, 7, 8, 9, 7, 8, 9, 8, 7, 9, 9, 7, 8})
	f.Add([]byte{3, 3, 3, 3, 2, 4, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 2, 1, 3})
	// Two string columns over one dictionary, over two equal ones and
	// over two padded ones, "" among their cells.
	f.Add([]byte{2, 2, 2, 2, 8, 6, 3, 4, 0, 1, 4, 0, 5, 1, 0, 4, 1, 5, 0, 0})
	f.Add([]byte{2, 2, 2, 2, 16, 6, 3, 4, 0, 1, 4, 0, 5, 1, 0, 4, 1, 5, 0, 0})
	f.Add([]byte{2, 2, 2, 2, 24, 6, 3, 4, 0, 1, 4, 0, 5, 1, 0, 4, 1, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernels(t, fuzzInputs(data))
	})
}
