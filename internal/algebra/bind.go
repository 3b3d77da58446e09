package algebra

import (
	"fmt"
	"strings"

	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
)

// Bind resolves a parsed SELECT against the catalog and returns a typed
// operator tree: scans with pruned column sets, pushed-down single-table
// filters, left-deep equi-joins in declared order, grouping/aggregation,
// projection, distinct, sort and limit.
func Bind(stmt *sql.SelectStmt, cat *storage.Catalog) (Node, error) {
	b := &binder{cat: cat, stmt: stmt}
	return b.bind()
}

// baseRel is one table in the FROM clause with its resolved metadata.
type baseRel struct {
	alias string
	table *storage.Table
	// needed column names, in table declaration order when emitted.
	needed map[string]bool
}

type binder struct {
	cat  *storage.Catalog
	stmt *sql.SelectStmt
	rels []*baseRel
}

func (b *binder) bind() (Node, error) {
	if len(b.stmt.Items) == 0 {
		return nil, fmt.Errorf("algebra: no select items")
	}
	if err := b.resolveTables(); err != nil {
		return nil, err
	}
	if err := b.collectNeeded(); err != nil {
		return nil, err
	}

	// Split WHERE into conjuncts and classify them.
	where := conjuncts(b.stmt.Where)
	perRel := make([][]sql.Expr, len(b.rels))
	var joinCands []sql.Expr // cross-relation equality conjuncts
	var residual []sql.Expr
	for _, c := range where {
		rels, err := b.relsOf(c)
		if err != nil {
			return nil, err
		}
		switch {
		case len(rels) <= 1:
			idx := 0
			for r := range rels {
				idx = r
			}
			if len(rels) == 0 {
				// Constant predicate: keep as residual on the first rel.
				residual = append(residual, c)
			} else {
				perRel[idx] = append(perRel[idx], c)
			}
		case len(rels) == 2 && isEquiJoin(c):
			joinCands = append(joinCands, c)
		default:
			residual = append(residual, c)
		}
	}

	// Build per-relation scan + pushed filters.
	nodes := make([]Node, len(b.rels))
	for i, rel := range b.rels {
		scan, err := b.scanNode(rel)
		if err != nil {
			return nil, err
		}
		var n Node = scan
		for _, pred := range perRel[i] {
			bound, err := b.bindExpr(pred, n.Schema(), false)
			if err != nil {
				return nil, err
			}
			if bound.Kind() != storage.Bool {
				return nil, fmt.Errorf("algebra: filter %s is not boolean", bound)
			}
			n = &Filter{Input: n, Pred: bound}
		}
		nodes[i] = n
	}

	// Left-deep joins in declared order.
	cur := nodes[0]
	inTree := map[int]bool{0: true}
	for ji, jc := range b.stmt.Joins {
		relIdx := ji + 1
		var keyExpr sql.Expr
		var onResidual []sql.Expr
		if jc.On != nil {
			for _, c := range conjuncts(jc.On) {
				if keyExpr == nil && isEquiJoin(c) {
					ok, err := b.connects(c, inTree, relIdx)
					if err != nil {
						return nil, err
					}
					if ok {
						keyExpr = c
						continue
					}
				}
				onResidual = append(onResidual, c)
			}
		} else {
			// Comma join: pull a connecting equality from WHERE.
			for k, c := range joinCands {
				if c == nil {
					continue
				}
				ok, err := b.connects(c, inTree, relIdx)
				if err != nil {
					return nil, err
				}
				if ok {
					keyExpr = c
					joinCands[k] = nil
					break
				}
			}
		}
		if keyExpr == nil {
			return nil, fmt.Errorf("algebra: no equi-join condition connecting %s", b.rels[relIdx].alias)
		}
		j, err := b.joinNode(cur, nodes[relIdx], keyExpr, inTree, relIdx)
		if err != nil {
			return nil, err
		}
		cur = j
		inTree[relIdx] = true
		residual = append(residual, onResidual...)
	}
	// Unused join candidates become residual filters.
	for _, c := range joinCands {
		if c != nil {
			residual = append(residual, c)
		}
	}
	for _, c := range residual {
		bound, err := b.bindExpr(c, cur.Schema(), false)
		if err != nil {
			return nil, err
		}
		if bound.Kind() != storage.Bool {
			return nil, fmt.Errorf("algebra: filter %s is not boolean", bound)
		}
		cur = &Filter{Input: cur, Pred: bound}
	}

	// Grouping and aggregation.
	hasAgg := len(b.stmt.GroupBy) > 0
	for _, it := range b.stmt.Items {
		if containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	var names []string
	if hasAgg {
		var err error
		cur, names, err = b.bindGrouped(cur)
		if err != nil {
			return nil, err
		}
	} else {
		var exprs []Expr
		for _, it := range b.stmt.Items {
			e, err := b.bindExpr(it.Expr, cur.Schema(), false)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			names = append(names, itemName(it))
		}
		cur = &Project{Input: cur, Exprs: exprs, Names: names}
	}

	if b.stmt.Distinct {
		cur = &Distinct{Input: cur}
	}

	if len(b.stmt.OrderBy) > 0 {
		keys, err := b.bindOrderKeys(cur.Schema(), names)
		if err != nil {
			return nil, err
		}
		cur = &Sort{Input: cur, Keys: keys}
	}
	if b.stmt.Limit >= 0 {
		cur = &Limit{Input: cur, N: b.stmt.Limit}
	}
	return cur, nil
}

func (b *binder) resolveTables() error {
	add := func(tr sql.TableRef) error {
		t, ok := b.cat.Table("sys", tr.Name)
		if !ok {
			return fmt.Errorf("algebra: unknown table %q", tr.Name)
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		for _, r := range b.rels {
			if r.alias == alias {
				return fmt.Errorf("algebra: duplicate table alias %q", alias)
			}
		}
		b.rels = append(b.rels, &baseRel{alias: alias, table: t, needed: map[string]bool{}})
		return nil
	}
	if err := add(b.stmt.From); err != nil {
		return err
	}
	for _, j := range b.stmt.Joins {
		if err := add(j.Table); err != nil {
			return err
		}
	}
	return nil
}

// resolveCol maps a possibly-qualified column reference to its relation
// index, checking ambiguity.
func (b *binder) resolveCol(qual, name string) (int, error) {
	found := -1
	for i, rel := range b.rels {
		if qual != "" && rel.alias != qual {
			continue
		}
		if _, ok := rel.table.ColumnKind(name); ok {
			if found >= 0 {
				return -1, fmt.Errorf("algebra: ambiguous column %q", name)
			}
			found = i
		}
	}
	if found < 0 {
		ref := name
		if qual != "" {
			ref = qual + "." + name
		}
		return -1, fmt.Errorf("algebra: unknown column %q", ref)
	}
	return found, nil
}

// collectNeeded walks every expression in the statement and marks the
// referenced columns on their relations, so scans read only what is used.
func (b *binder) collectNeeded() error {
	var visit func(e sql.Expr) error
	visit = func(e sql.Expr) error {
		switch t := e.(type) {
		case nil:
			return nil
		case *sql.ColRef:
			idx, err := b.resolveCol(t.Table, t.Column)
			if err != nil {
				return err
			}
			b.rels[idx].needed[t.Column] = true
		case *sql.BinExpr:
			if err := visit(t.L); err != nil {
				return err
			}
			return visit(t.R)
		case *sql.NotExpr:
			return visit(t.E)
		case *sql.BetweenExpr:
			if err := visit(t.E); err != nil {
				return err
			}
			if err := visit(t.Lo); err != nil {
				return err
			}
			return visit(t.Hi)
		case *sql.LikeExpr:
			return visit(t.E)
		case *sql.InExpr:
			if err := visit(t.E); err != nil {
				return err
			}
			for _, v := range t.List {
				if err := visit(v); err != nil {
					return err
				}
			}
		case *sql.AggExpr:
			if t.Arg != nil {
				return visit(t.Arg)
			}
		}
		return nil
	}
	for _, it := range b.stmt.Items {
		if err := visit(it.Expr); err != nil {
			return err
		}
	}
	if err := visit(b.stmt.Where); err != nil {
		return err
	}
	for _, j := range b.stmt.Joins {
		if err := visit(j.On); err != nil {
			return err
		}
	}
	for _, g := range b.stmt.GroupBy {
		if err := visit(g); err != nil {
			return err
		}
	}
	// Order-by may reference select-list aliases (standard SQL); those
	// are not base columns and resolve later against the output schema.
	aliases := map[string]bool{}
	for _, it := range b.stmt.Items {
		if it.Alias != "" {
			aliases[it.Alias] = true
		}
	}
	for _, o := range b.stmt.OrderBy {
		if cr, ok := o.Expr.(*sql.ColRef); ok && cr.Table == "" && aliases[cr.Column] {
			if _, err := b.resolveCol("", cr.Column); err != nil {
				continue // pure alias reference
			}
		}
		if err := visit(o.Expr); err != nil {
			return err
		}
	}
	return nil
}

func (b *binder) scanNode(rel *baseRel) (*Scan, error) {
	var out Schema
	for _, c := range rel.table.Columns {
		if rel.needed[c.Name] {
			out = append(out, Col{Qual: rel.alias, Name: c.Name, Kind: c.Kind})
		}
	}
	if len(out) == 0 {
		// count(*)-style queries still need one column to scan.
		c := rel.table.Columns[0]
		out = Schema{{Qual: rel.alias, Name: c.Name, Kind: c.Kind}}
	}
	return &Scan{SchemaName: rel.table.Schema, Table: rel.table.Name, Alias: rel.alias, Out: out}, nil
}

// relsOf returns the set of relation indices referenced by an expression.
func (b *binder) relsOf(e sql.Expr) (map[int]bool, error) {
	out := map[int]bool{}
	var visit func(e sql.Expr) error
	visit = func(e sql.Expr) error {
		switch t := e.(type) {
		case nil:
			return nil
		case *sql.ColRef:
			idx, err := b.resolveCol(t.Table, t.Column)
			if err != nil {
				return err
			}
			out[idx] = true
		case *sql.BinExpr:
			if err := visit(t.L); err != nil {
				return err
			}
			return visit(t.R)
		case *sql.NotExpr:
			return visit(t.E)
		case *sql.BetweenExpr:
			if err := visit(t.E); err != nil {
				return err
			}
			if err := visit(t.Lo); err != nil {
				return err
			}
			return visit(t.Hi)
		case *sql.LikeExpr:
			return visit(t.E)
		case *sql.InExpr:
			if err := visit(t.E); err != nil {
				return err
			}
			for _, v := range t.List {
				if err := visit(v); err != nil {
					return err
				}
			}
		case *sql.AggExpr:
			if t.Arg != nil {
				return visit(t.Arg)
			}
		}
		return nil
	}
	if err := visit(e); err != nil {
		return nil, err
	}
	return out, nil
}

// connects reports whether equi-join conjunct c links a relation already
// in the join tree with the relation being added.
func (b *binder) connects(c sql.Expr, inTree map[int]bool, adding int) (bool, error) {
	bin := c.(*sql.BinExpr)
	lRels, err := b.relsOf(bin.L)
	if err != nil {
		return false, err
	}
	rRels, err := b.relsOf(bin.R)
	if err != nil {
		return false, err
	}
	if len(lRels) != 1 || len(rRels) != 1 {
		return false, nil
	}
	var l, r int
	for k := range lRels {
		l = k
	}
	for k := range rRels {
		r = k
	}
	return (inTree[l] && r == adding) || (inTree[r] && l == adding), nil
}

func (b *binder) joinNode(l, r Node, keyExpr sql.Expr, inTree map[int]bool, adding int) (*Join, error) {
	bin := keyExpr.(*sql.BinExpr)
	lc := bin.L.(*sql.ColRef)
	rc := bin.R.(*sql.ColRef)
	// Determine which side belongs to the new relation.
	rcRel, err := b.resolveCol(rc.Table, rc.Column)
	if err != nil {
		return nil, err
	}
	leftRef, rightRef := lc, rc
	if rcRel != adding {
		leftRef, rightRef = rc, lc
	}
	li, err := l.Schema().Find(leftRef.Table, leftRef.Column)
	if err != nil {
		return nil, err
	}
	ri, err := r.Schema().Find(rightRef.Table, rightRef.Column)
	if err != nil {
		return nil, err
	}
	lk, rk := l.Schema()[li].Kind, r.Schema()[ri].Kind
	if !kindsComparable(lk, rk) {
		return nil, fmt.Errorf("algebra: join key kinds %s and %s incompatible", lk, rk)
	}
	return &Join{L: l, R: r, LKey: li, RKey: ri}, nil
}

// bindGrouped builds the GroupAgg + Project pair for aggregate queries.
// Each select item must be either one of the group-by expressions or a
// single aggregate call (standard SQL restriction, simplified: no
// arithmetic over aggregates).
func (b *binder) bindGrouped(in Node) (Node, []string, error) {
	var keys []Expr
	var keyNames []string
	keyText := map[string]int{}
	for _, g := range b.stmt.GroupBy {
		e, err := b.bindExpr(g, in.Schema(), false)
		if err != nil {
			return nil, nil, err
		}
		keyText[g.String()] = len(keys)
		keys = append(keys, e)
		keyNames = append(keyNames, g.String())
	}

	var aggs []AggSpec
	aggText := map[string]int{}
	bindAgg := func(a *sql.AggExpr) (int, error) {
		if i, ok := aggText[a.String()]; ok {
			return i, nil
		}
		spec := AggSpec{Name: a.String(), CountStar: a.Star}
		switch a.Func {
		case "sum":
			spec.Func = storage.AggrSum
		case "count":
			spec.Func = storage.AggrCount
		case "min":
			spec.Func = storage.AggrMin
		case "max":
			spec.Func = storage.AggrMax
		case "avg":
			spec.Func = storage.AggrAvg
		default:
			return 0, fmt.Errorf("algebra: unknown aggregate %q", a.Func)
		}
		if a.Star {
			spec.K = storage.Int
		} else {
			arg, err := b.bindExpr(a.Arg, in.Schema(), false)
			if err != nil {
				return 0, err
			}
			spec.Arg = arg
			switch spec.Func {
			case storage.AggrCount:
				spec.K = storage.Int
			case storage.AggrAvg:
				spec.K = storage.Flt
			default:
				spec.K = arg.Kind()
			}
			if spec.Func == storage.AggrSum && arg.Kind() == storage.Flt {
				spec.K = storage.Flt
			}
		}
		aggText[spec.Name] = len(aggs)
		aggs = append(aggs, spec)
		return len(aggs) - 1, nil
	}

	// Map each select item onto the GroupAgg output.
	type itemRef struct {
		ordinal int // into GroupAgg schema
		name    string
	}
	var refs []itemRef
	for _, it := range b.stmt.Items {
		switch t := it.Expr.(type) {
		case *sql.AggExpr:
			ai, err := bindAgg(t)
			if err != nil {
				return nil, nil, err
			}
			refs = append(refs, itemRef{ordinal: len(keys) + ai, name: itemName(it)})
		default:
			ki, ok := keyText[it.Expr.String()]
			if !ok {
				return nil, nil, fmt.Errorf("algebra: select item %s is neither a group key nor an aggregate", it.Expr)
			}
			refs = append(refs, itemRef{ordinal: ki, name: itemName(it)})
		}
	}
	// Order-by may reference aggregates not in the select list.
	for _, o := range b.stmt.OrderBy {
		if a, ok := o.Expr.(*sql.AggExpr); ok {
			if _, err := bindAgg(a); err != nil {
				return nil, nil, err
			}
		}
	}

	ga := &GroupAgg{Input: in, Keys: keys, KeyNames: keyNames, Aggs: aggs}
	gaSchema := ga.Schema()
	var exprs []Expr
	var names []string
	for _, r := range refs {
		exprs = append(exprs, &ColIdx{Idx: r.ordinal, Col: gaSchema[r.ordinal]})
		names = append(names, r.name)
	}
	return &Project{Input: ga, Exprs: exprs, Names: names}, names, nil
}

// bindOrderKeys resolves order-by expressions against the projected output
// by alias, column name, or textual expression match.
func (b *binder) bindOrderKeys(out Schema, names []string) ([]SortKey, error) {
	var keys []SortKey
	for _, o := range b.stmt.OrderBy {
		target := o.Expr.String()
		idx := -1
		for i, n := range names {
			if n == target {
				idx = i
				break
			}
		}
		if idx < 0 {
			for i, it := range b.stmt.Items {
				if it.Expr.String() == target {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			if cr, ok := o.Expr.(*sql.ColRef); ok {
				for i, c := range out {
					if c.Name == cr.Column {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("algebra: order-by %s is not in the select list", target)
		}
		keys = append(keys, SortKey{Idx: idx, Desc: o.Desc})
	}
	return keys, nil
}

// bindExpr type-checks and binds e against schema. allowAgg is false
// everywhere aggregates are illegal (filters, join keys, scalar contexts).
func (b *binder) bindExpr(e sql.Expr, schema Schema, allowAgg bool) (Expr, error) {
	switch t := e.(type) {
	case *sql.ColRef:
		idx, err := schema.Find(t.Table, t.Column)
		if err != nil {
			return nil, err
		}
		return &ColIdx{Idx: idx, Col: schema[idx]}, nil
	case *sql.IntLit:
		return &Const{K: storage.Int, I: t.Value, Lit: t.Lit}, nil
	case *sql.FltLit:
		return &Const{K: storage.Flt, F: t.Value, Lit: t.Lit}, nil
	case *sql.StrLit:
		return &Const{K: storage.Str, S: t.Value, Lit: t.Lit}, nil
	case *sql.DateLit:
		return &Const{K: storage.Date, I: t.Days, Lit: t.Lit}, nil
	case *sql.NotExpr:
		inner, err := b.bindExpr(t.E, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		if inner.Kind() != storage.Bool {
			return nil, fmt.Errorf("algebra: not over %s", inner.Kind())
		}
		return &Not{E: inner}, nil
	case *sql.BetweenExpr:
		inner, err := b.bindExpr(t.E, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(t.Lo, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(t.Hi, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		if !kindsComparable(inner.Kind(), lo.Kind()) || !kindsComparable(inner.Kind(), hi.Kind()) {
			return nil, fmt.Errorf("algebra: between over %s/%s/%s", inner.Kind(), lo.Kind(), hi.Kind())
		}
		return &Between{E: inner, Lo: lo, Hi: hi}, nil
	case *sql.BinExpr:
		l, err := b.bindExpr(t.L, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(t.R, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		return typeBin(t.Op, l, r)
	case *sql.LikeExpr:
		inner, err := b.bindExpr(t.E, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		if inner.Kind() != storage.Str {
			return nil, fmt.Errorf("algebra: like over %s", inner.Kind())
		}
		var out Expr = &Like{E: inner, Pattern: t.Pattern, Lit: t.Lit}
		if t.Not {
			out = &Not{E: out}
		}
		return out, nil
	case *sql.InExpr:
		// Desugar to an equality disjunction: e = v1 or e = v2 or ...
		inner, err := b.bindExpr(t.E, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		var out Expr
		for _, v := range t.List {
			bv, err := b.bindExpr(v, schema, allowAgg)
			if err != nil {
				return nil, err
			}
			eq, err := typeBin("=", inner, bv)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = eq
			} else {
				out = &Bin{Op: "or", L: out, R: eq, K: storage.Bool}
			}
		}
		if out == nil {
			return nil, fmt.Errorf("algebra: empty in-list")
		}
		if t.Not {
			out = &Not{E: out}
		}
		return out, nil
	case *sql.AggExpr:
		return nil, fmt.Errorf("algebra: aggregate %s not allowed here", t)
	}
	return nil, fmt.Errorf("algebra: cannot bind %T", e)
}

func typeBin(op string, l, r Expr) (Expr, error) {
	lk, rk := l.Kind(), r.Kind()
	switch op {
	case "+", "-", "*", "/":
		// Date arithmetic: date ± int stays a date.
		if (op == "+" || op == "-") && lk == storage.Date && intFamily(rk) {
			return &Bin{Op: op, L: l, R: r, K: storage.Date}, nil
		}
		if !numeric(lk) || !numeric(rk) {
			return nil, fmt.Errorf("algebra: arithmetic %s over %s and %s", op, lk, rk)
		}
		k := storage.Int
		if op == "/" || lk == storage.Flt || rk == storage.Flt {
			k = storage.Flt
		}
		return &Bin{Op: op, L: l, R: r, K: k}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		if !kindsComparable(lk, rk) {
			return nil, fmt.Errorf("algebra: comparison %s over %s and %s", op, lk, rk)
		}
		return &Bin{Op: op, L: l, R: r, K: storage.Bool}, nil
	case "and", "or":
		if lk != storage.Bool || rk != storage.Bool {
			return nil, fmt.Errorf("algebra: %s over %s and %s", op, lk, rk)
		}
		return &Bin{Op: op, L: l, R: r, K: storage.Bool}, nil
	}
	return nil, fmt.Errorf("algebra: unknown operator %q", op)
}

func numeric(k storage.Kind) bool {
	return k == storage.Int || k == storage.Flt || k == storage.Date || k == storage.OID
}

func intFamily(k storage.Kind) bool {
	return k == storage.Int || k == storage.Date || k == storage.OID
}

func kindsComparable(a, b storage.Kind) bool {
	if a == b {
		return true
	}
	return numeric(a) && numeric(b)
}

// conjuncts flattens nested ANDs into a list.
func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if bin, ok := e.(*sql.BinExpr); ok && bin.Op == "and" {
		return append(conjuncts(bin.L), conjuncts(bin.R)...)
	}
	return []sql.Expr{e}
}

// isEquiJoin reports whether the conjunct is "col = col".
func isEquiJoin(e sql.Expr) bool {
	bin, ok := e.(*sql.BinExpr)
	if !ok || bin.Op != "=" {
		return false
	}
	_, lok := bin.L.(*sql.ColRef)
	_, rok := bin.R.(*sql.ColRef)
	return lok && rok
}

func containsAgg(e sql.Expr) bool {
	switch t := e.(type) {
	case *sql.AggExpr:
		return true
	case *sql.BinExpr:
		return containsAgg(t.L) || containsAgg(t.R)
	case *sql.NotExpr:
		return containsAgg(t.E)
	case *sql.BetweenExpr:
		return containsAgg(t.E) || containsAgg(t.Lo) || containsAgg(t.Hi)
	case *sql.LikeExpr:
		return containsAgg(t.E)
	case *sql.InExpr:
		if containsAgg(t.E) {
			return true
		}
		for _, v := range t.List {
			if containsAgg(v) {
				return true
			}
		}
	}
	return false
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColRef); ok {
		return cr.Column
	}
	return strings.ToLower(it.Expr.String())
}
