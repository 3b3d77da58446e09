package planner

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/dot"
	"stethoscope/internal/engine"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/tpch"
)

// literalSpan is one literal of a statement's text: [start, end) covers
// a number or a quoted string, date marks a string written after the
// date keyword.
type literalSpan struct {
	start, end int
	date       bool
}

// literalSpans finds the literals of a statement the way a reader would:
// numbers that are not part of an identifier and are not a LIMIT count,
// and quoted strings, in which a doubled quote stands for one.
func literalSpans(s string) []literalSpan {
	var out []literalSpan
	isWord := func(c byte) bool { return c == '_' || c|0x20 >= 'a' && c|0x20 <= 'z' || c >= '0' && c <= '9' }
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\'':
			j := i + 1
			for j < len(s) && (s[j] != '\'' || j+1 < len(s) && s[j+1] == '\'') {
				if s[j] == '\'' {
					j++
				}
				j++
			}
			date := strings.HasSuffix(strings.ToLower(strings.TrimRight(s[:i], " ")), "date")
			out = append(out, literalSpan{i, j + 1, date})
			i = j + 1
		case c >= '0' && c <= '9' && (i == 0 || !isWord(s[i-1])):
			j := i
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.') {
				j++
			}
			if !strings.HasSuffix(strings.ToLower(strings.TrimRight(s[:i], " ")), "limit") {
				out = append(out, literalSpan{i, j, false})
			}
			i = j
		default:
			i++
		}
	}
	return out
}

// varyLiteral renders literal sp of s moved by step: integers add step,
// decimals add step in their last digit, dates move by step days and
// strings gain a suffix.
func varyLiteral(s string, sp literalSpan, step int) string {
	lit := s[sp.start:sp.end]
	switch {
	case sp.date:
		d, err := time.Parse("2006-01-02", strings.Trim(lit, "'"))
		if err != nil {
			panic(err)
		}
		return "'" + d.AddDate(0, 0, step).Format("2006-01-02") + "'"
	case lit[0] == '\'':
		return lit[:len(lit)-1] + strconv.Itoa(step) + "'"
	case strings.Contains(lit, "."):
		places := len(lit) - strings.Index(lit, ".") - 1
		f, _ := strconv.ParseFloat(lit, 64)
		for range places {
			f *= 10
		}
		n := int64(f+0.5) + int64(step)
		digits := fmt.Sprintf("%0*d", places+1, n)
		return digits[:len(digits)-places] + "." + digits[len(digits)-places:]
	default:
		n, _ := strconv.ParseInt(lit, 10, 64)
		return strconv.FormatInt(n+int64(step), 10)
	}
}

// varyLiterals moves the literals of s that pick selects by step.
func varyLiterals(s string, step int, pick func(i int) bool) string {
	var b strings.Builder
	last := 0
	for i, sp := range literalSpans(s) {
		if !pick(i) {
			continue
		}
		b.WriteString(s[last:sp.start])
		b.WriteString(varyLiteral(s, sp, step))
		last = sp.end
	}
	b.WriteString(s[last:])
	return b.String()
}

// sweepVariants is every sweep statement, then each with all its
// literals moved together (which keeps their equality pattern) and
// with each literal moved alone (which may change it).
func sweepVariants() []string {
	var out []string
	for _, s := range tpch.SweepQueries() {
		out = append(out, s, varyLiterals(s, 1, func(int) bool { return true }), varyLiterals(s, 3, func(int) bool { return true }))
		for i := range literalSpans(s) {
			out = append(out, varyLiterals(s, 2, func(j int) bool { return j == i }))
		}
	}
	return out
}

// samePlan fails t unless got is the plan a fresh compile made: the
// same variables, constants and instructions, the same listing and the
// same dot text; and unless every statement got's memo serves — its own
// text or its body's — is the one StmtString renders.
func samePlan(t *testing.T, what string, got, want Compiled) {
	t.Helper()
	g, w := got.Plan, want.Plan
	for _, in := range g.Instrs {
		if memo, text := g.CachedStmt(in), g.StmtString(in); memo != text {
			t.Errorf("%s: pc=%d statement memo serves\n%s\nStmtString renders\n%s", what, in.PC, memo, text)
			return
		}
	}
	switch {
	case !reflect.DeepEqual(g.Vars, w.Vars):
		t.Errorf("%s: variables differ from a fresh compile", what)
	case !reflect.DeepEqual(g.Consts, w.Consts):
		t.Errorf("%s: constants differ from a fresh compile:\n got %v\nwant %v", what, g.Consts, w.Consts)
	case !reflect.DeepEqual(g.Instrs, w.Instrs):
		t.Errorf("%s: instructions differ from a fresh compile", what)
	case g.String() != w.String():
		t.Errorf("%s: listing differs from a fresh compile:\n got %s\nwant %s", what, g.String(), w.String())
	case dot.Export(g).Marshal() != dot.Export(w).Marshal():
		t.Errorf("%s: dot text differs from a fresh compile", what)
	case got.Partitions != want.Partitions || got.TuneReason != want.TuneReason || !reflect.DeepEqual(got.Opt, want.Opt):
		t.Errorf("%s: compiled with %d %q %v, a fresh compile with %d %q %v", what,
			got.Partitions, got.TuneReason, got.Opt, want.Partitions, want.TuneReason, want.Opt)
	}
}

// TestTemplateInstancesMatchCompile is the judge of plan reuse across
// literals: every statement compiled through a serving planner — whose
// plan may be an instance of an earlier statement of the same shape —
// equals a fresh compile of the same text by a planner that shares
// nothing. The inputs are the sweep statements with their literals
// varied and a serve-adhoc-shaped stream, at partitions 1, 7, 64 and
// Auto.
func TestTemplateInstancesMatchCompile(t *testing.T) {
	adhoc := 2000
	if raceEnabled || testing.Short() {
		adhoc = 200
	}
	stmts := sweepVariants()
	for i := range adhoc {
		stmts = append(stmts, adhocStatement(i))
	}
	pl := optimizer.Default()
	for _, parts := range []int{1, 7, 64, adaptive.Auto} {
		name := fmt.Sprintf("partitions=%d", parts)
		if parts == adaptive.Auto {
			name = "partitions=auto"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serving := newFootprintPlanner(256)
			serving.Flight = NewCompileFlight()
			fresh := &Planner{Cat: testCat, Pipeline: pl, PassSpec: pl.Spec()}
			instances := 0
			for i, s := range stmts {
				got, err := serving.Compile(s, parts, false)
				want, werr := fresh.Compile(s, parts, false)
				if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
					t.Fatalf("%q: serving planner says %v, a fresh compile %v", s, err, werr)
				}
				if err != nil {
					continue
				}
				samePlan(t, fmt.Sprintf("%q", s), got, want)
				if got.Instantiated && i >= len(stmts)-adhoc {
					instances++
				}
			}
			// The stream has four shapes and a handful of equality
			// patterns: all but the first few statements are instances,
			// or the judge would be judging nothing.
			t.Logf("%d of %d stream statements instantiated; templates %+v", instances, adhoc, serving.Templates.Stats())
			if instances < adhoc-16 {
				t.Errorf("%d of %d stream statements instantiated, want all but at most 16", instances, adhoc)
			}
		})
	}
}

// TestTemplateInstancesConcurrent: goroutines instantiate two shapes
// with many literals at once — the point filter and Q6 — while their
// runs read the body every instance shares (its instructions, validation
// and read counts). Every plan still equals a fresh compile and runs to
// the result a fresh compile's plan gives. Run it under -race.
func TestTemplateInstancesConcurrent(t *testing.T) {
	const goroutines = 6
	per := 24
	if raceEnabled {
		per = 8
	}
	serving := newFootprintPlanner(plancache.DefaultSize)
	serving.Flight = NewCompileFlight()
	pl := optimizer.Default()
	fresh := &Planner{Cat: testCat, Pipeline: pl, PassSpec: pl.Spec()}
	eng := engine.New(testCat)
	result := func(c Compiled) string {
		res, err := eng.Run(c.Plan, engine.Options{Workers: 2})
		if err != nil {
			t.Error(err)
			return ""
		}
		var b strings.Builder
		if _, err := res.WriteText(&b); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range per {
				s := adhocStatement(4*(g*per+k) + k%2)
				got, err := serving.Compile(s, 7, false)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := fresh.Compile(s, 7, false)
				if err != nil {
					t.Error(err)
					return
				}
				samePlan(t, s, got, want)
				if g, w := result(got), result(want); g != w {
					t.Errorf("%s: an instance's run answered\n%s\na fresh plan's\n%s", s, g, w)
				}
			}
		}()
	}
	wg.Wait()
	if st := serving.Templates.Stats(); st.Hits < int64(goroutines*per-2*goroutines) {
		t.Errorf("templates %+v: the statements were not instances", st)
	}
}

// TestTemplateSharedAcrossSpelling: the template key is the bound tree,
// not the text, so a statement spelled differently but binding to the
// same tree up to its literals is an instance of the first one's
// template, and still equals a fresh compile of its own text: every
// sweep statement with its keywords in upper case, its whitespace
// changed and its literals moved, and pairs whose tokens differ (<>
// beside !=, redundant parentheses).
func TestTemplateSharedAcrossSpelling(t *testing.T) {
	respell := strings.NewReplacer("select ", "SELECT\n\t", " from ", "\n  FROM ", " where ", "\tWhere  ")
	var pairs [][2]string
	for _, s := range tpch.SweepQueries() {
		pairs = append(pairs, [2]string{s, respell.Replace(varyLiterals(s, 1, func(int) bool { return true }))})
	}
	pairs = append(pairs,
		[2]string{"select l_tax from lineitem where l_orderkey <> 1", "select l_tax from lineitem where l_orderkey != 2"},
		[2]string{"select l_tax from lineitem where l_partkey = 1 and l_quantity < 5",
			"select l_tax from lineitem where ((l_partkey = 3) and (l_quantity < 4))"})
	serving := newFootprintPlanner(plancache.DefaultSize)
	pl := optimizer.Default()
	fresh := &Planner{Cat: testCat, Pipeline: pl, PassSpec: pl.Spec()}
	for _, pair := range pairs {
		if _, err := serving.Compile(pair[0], 7, false); err != nil {
			t.Fatalf("%q: %v", pair[0], err)
		}
		got, err := serving.Compile(pair[1], 7, false)
		if err != nil {
			t.Fatalf("%q: %v", pair[1], err)
		}
		want, err := fresh.Compile(pair[1], 7, false)
		if err != nil {
			t.Fatalf("%q: %v", pair[1], err)
		}
		if !got.Instantiated {
			t.Errorf("%q was compiled, not instantiated from the template of %q", pair[1], pair[0])
		}
		samePlan(t, fmt.Sprintf("%q", pair[1]), got, want)
	}
}

// TestInstanceSharesSchedule: an instance's dataflow schedule and
// dependency edges are its body's — the same backing arrays, built
// once — and so is the text of every statement that reads none of its
// own literals. The schedule is the reference one (Deps transposed,
// ordered instructions chained in plan order), and running the plans
// on the dataflow scheduler and pruning them leaves it as it was.
func TestInstanceSharesSchedule(t *testing.T) {
	q6, _ := tpch.QueryByID("Q6")
	other := strings.NewReplacer("1994-01-01", "1995-02-01", "0.05", "0.04", "< 24", "< 23").Replace(q6.SQL)
	serving := newFootprintPlanner(8)
	first, err := serving.Compile(q6.SQL, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := serving.Compile(other, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	body := second.Plan.Body()
	if !second.Instantiated || body == nil || first.Plan.Body() != body {
		t.Fatalf("the second Q6 text is not an instance of the first one's template")
	}
	s := body.Schedule()
	for _, p := range []*mal.Plan{first.Plan, second.Plan} {
		if p.Schedule() != s || &p.Deps()[1] != &s.Deps[1] {
			t.Fatalf("an instance built a schedule of its own")
		}
	}

	ordered := map[string]bool{"sql.resultSet": true, "sql.rsColumn": true, "sql.exportResult": true, "querylog.define": true}
	uses := make([][]int, len(body.Instrs))
	pending := make([]int32, len(body.Instrs))
	for pc, ds := range s.Deps {
		pending[pc] = int32(len(ds))
		for _, d := range ds {
			uses[d] = append(uses[d], pc)
		}
	}
	last := -1
	for pc, in := range body.Instrs {
		if ordered[in.Name()] {
			if last >= 0 {
				uses[last] = append(uses[last], pc)
				pending[pc]++
			}
			last = pc
		}
	}
	for pc := range uses {
		if !slices.Equal(uses[pc], s.Uses[pc]) {
			t.Fatalf("pc=%d: schedule uses %v, the transpose with the ordered chain %v", pc, s.Uses[pc], uses[pc])
		}
	}
	if !slices.Equal(pending, s.Pending) {
		t.Fatalf("schedule pending %v, want %v", s.Pending, pending)
	}

	owned := 0
	for _, in := range second.Plan.Instrs {
		if got, shared := second.Plan.CachedStmt(in), body.CachedStmt(in); got == shared {
			if unsafe.StringData(got) != unsafe.StringData(shared) {
				t.Fatalf("pc=%d: the instance rendered its body's text %q again", in.PC, got)
			}
		} else {
			owned++
		}
	}
	if owned == 0 || owned >= len(body.Instrs)/2 {
		t.Errorf("the instance renders %d of %d statements itself", owned, len(body.Instrs))
	}

	deps, before := slices.Clone(s.Deps), slices.Clone(s.Uses)
	for i := range deps {
		deps[i], before[i] = slices.Clone(deps[i]), slices.Clone(before[i])
	}
	pend := slices.Clone(s.Pending)
	eng := engine.New(testCat)
	for _, p := range []*mal.Plan{first.Plan, second.Plan, first.Plan} {
		if _, err := eng.Run(p, engine.Options{Workers: 3}); err != nil {
			t.Fatal(err)
		}
		mal.Prune(p)
	}
	if !reflect.DeepEqual(deps, s.Deps) || !reflect.DeepEqual(before, s.Uses) || !slices.Equal(pend, s.Pending) {
		t.Error("running and pruning the plans modified the shared schedule")
	}
}
