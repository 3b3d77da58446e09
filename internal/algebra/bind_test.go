package algebra

import (
	"strings"
	"testing"

	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
)

// testCatalog builds a tiny catalog with two joinable tables.
func testCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	err := cat.Define("sys", "lineitem",
		[]storage.Column{
			{Name: "l_orderkey", Kind: storage.Int},
			{Name: "l_partkey", Kind: storage.Int},
			{Name: "l_quantity", Kind: storage.Flt},
			{Name: "l_tax", Kind: storage.Flt},
			{Name: "l_returnflag", Kind: storage.Str},
			{Name: "l_shipdate", Kind: storage.Date},
		},
		map[string]*storage.BAT{
			"l_orderkey":   storage.FromInts(storage.Int, []int64{1, 1, 2}),
			"l_partkey":    storage.FromInts(storage.Int, []int64{1, 2, 1}),
			"l_quantity":   storage.FromFloats([]float64{10, 20, 30}),
			"l_tax":        storage.FromFloats([]float64{0.1, 0.2, 0.3}),
			"l_returnflag": storage.FromStrings([]string{"A", "N", "R"}),
			"l_shipdate":   storage.FromInts(storage.Date, []int64{8100, 8200, 8300}),
		})
	if err != nil {
		t.Fatal(err)
	}
	err = cat.Define("sys", "orders",
		[]storage.Column{
			{Name: "o_orderkey", Kind: storage.Int},
			{Name: "o_totalprice", Kind: storage.Flt},
		},
		map[string]*storage.BAT{
			"o_orderkey":   storage.FromInts(storage.Int, []int64{1, 2}),
			"o_totalprice": storage.FromFloats([]float64{100, 200}),
		})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func bindQuery(t *testing.T, q string) Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	n, err := Bind(stmt, testCatalog(t))
	if err != nil {
		t.Fatalf("Bind(%q): %v", q, err)
	}
	return n
}

func TestBindPaperQuery(t *testing.T) {
	n := bindQuery(t, "select l_tax from lineitem where l_partkey=1")
	proj, ok := n.(*Project)
	if !ok {
		t.Fatalf("root = %T, want *Project", n)
	}
	if len(proj.Exprs) != 1 || proj.Names[0] != "l_tax" {
		t.Errorf("projection = %v %v", proj.Exprs, proj.Names)
	}
	filt, ok := proj.Input.(*Filter)
	if !ok {
		t.Fatalf("project input = %T, want *Filter (pushed down)", proj.Input)
	}
	scan, ok := filt.Input.(*Scan)
	if !ok {
		t.Fatalf("filter input = %T", filt.Input)
	}
	// Column pruning: only l_partkey and l_tax are needed.
	if len(scan.Out) != 2 {
		t.Errorf("scan schema = %v", scan.Out)
	}
}

func TestBindSchemaKinds(t *testing.T) {
	n := bindQuery(t, "select l_tax, l_returnflag, l_shipdate from lineitem")
	s := n.Schema()
	want := []storage.Kind{storage.Flt, storage.Str, storage.Date}
	for i, k := range want {
		if s[i].Kind != k {
			t.Errorf("col %d kind = %v, want %v", i, s[i].Kind, k)
		}
	}
}

func TestBindJoinOnClause(t *testing.T) {
	n := bindQuery(t, "select o_totalprice from orders join lineitem on l_orderkey = o_orderkey where l_quantity > 15")
	// Filter on lineitem is pushed below the join.
	var join *Join
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Project:
			walk(t.Input)
		case *Filter:
			walk(t.Input)
		case *Join:
			join = t
		}
	}
	walk(n)
	if join == nil {
		t.Fatal("no join node found")
	}
	if _, ok := join.R.(*Filter); !ok {
		t.Errorf("right side = %T, want pushed *Filter", join.R)
	}
	lk := join.L.Schema()[join.LKey]
	rk := join.R.Schema()[join.RKey]
	if lk.Name != "o_orderkey" || rk.Name != "l_orderkey" {
		t.Errorf("join keys = %s, %s", lk.QName(), rk.QName())
	}
}

func TestBindCommaJoinFromWhere(t *testing.T) {
	n := bindQuery(t, "select l_tax from lineitem, orders where l_orderkey = o_orderkey and o_totalprice > 50")
	if !strings.Contains(Tree(n), "join on") {
		t.Fatalf("comma join not recognized:\n%s", Tree(n))
	}
}

func TestBindGroupAgg(t *testing.T) {
	n := bindQuery(t, "select l_returnflag, sum(l_quantity) as qty, count(*) as n from lineitem group by l_returnflag")
	proj := n.(*Project)
	ga, ok := proj.Input.(*GroupAgg)
	if !ok {
		t.Fatalf("project input = %T", proj.Input)
	}
	if len(ga.Keys) != 1 || len(ga.Aggs) != 2 {
		t.Fatalf("keys=%d aggs=%d", len(ga.Keys), len(ga.Aggs))
	}
	if ga.Aggs[0].Func != storage.AggrSum || ga.Aggs[1].Func != storage.AggrCount || !ga.Aggs[1].CountStar {
		t.Errorf("aggs = %+v", ga.Aggs)
	}
	s := n.Schema()
	if s[0].Kind != storage.Str || s[1].Kind != storage.Flt || s[2].Kind != storage.Int {
		t.Errorf("schema kinds = %v", s)
	}
	if proj.Names[1] != "qty" {
		t.Errorf("alias = %q", proj.Names[1])
	}
}

func TestBindOrderByAndLimit(t *testing.T) {
	n := bindQuery(t, "select l_tax from lineitem order by l_tax desc limit 2")
	lim, ok := n.(*Limit)
	if !ok || lim.N != 2 {
		t.Fatalf("root = %T", n)
	}
	srt, ok := lim.Input.(*Sort)
	if !ok {
		t.Fatalf("limit input = %T", lim.Input)
	}
	if len(srt.Keys) != 1 || !srt.Keys[0].Desc || srt.Keys[0].Idx != 0 {
		t.Errorf("sort keys = %+v", srt.Keys)
	}
}

func TestBindDistinct(t *testing.T) {
	n := bindQuery(t, "select distinct l_returnflag from lineitem")
	found := false
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Distinct:
			found = true
			walk(t.Input)
		case *Project:
			walk(t.Input)
		case *Sort:
			walk(t.Input)
		}
	}
	walk(n)
	if !found {
		t.Errorf("no distinct node:\n%s", Tree(n))
	}
}

func TestBindExpressionTyping(t *testing.T) {
	n := bindQuery(t, "select l_quantity * 2 from lineitem")
	if n.Schema()[0].Kind != storage.Flt {
		t.Errorf("flt*int = %v", n.Schema()[0].Kind)
	}
	n = bindQuery(t, "select l_partkey + 1 from lineitem")
	if n.Schema()[0].Kind != storage.Int {
		t.Errorf("int+int = %v", n.Schema()[0].Kind)
	}
	n = bindQuery(t, "select l_partkey / 2 from lineitem")
	if n.Schema()[0].Kind != storage.Flt {
		t.Errorf("int/int = %v", n.Schema()[0].Kind)
	}
}

func TestBindBetweenDates(t *testing.T) {
	n := bindQuery(t, "select l_tax from lineitem where l_shipdate between date '1992-01-01' and date '1994-01-01'")
	if _, ok := n.(*Project); !ok {
		t.Fatalf("root = %T", n)
	}
	if !strings.Contains(Tree(n), "between") {
		t.Errorf("tree:\n%s", Tree(n))
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"select nope from lineitem",
		"select l_tax from nosuch",
		"select l_tax from lineitem where l_returnflag + 1 = 2",
		"select l_tax from lineitem where l_tax",
		"select sum(l_returnflag) from lineitem group by l_orderkey, sum(l_tax)",
		"select l_tax from lineitem group by l_returnflag",
		"select l_tax from lineitem order by l_quantity",
		"select l_tax from lineitem join orders on l_quantity > 1",
		"select o_orderkey from orders, lineitem",
		"select l_tax from lineitem l join lineitem l on l.l_orderkey = l.l_orderkey",
		"select l_orderkey from lineitem join orders on o_orderkey = o_totalprice",
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			continue // parse-level rejection also fine for some
		}
		if _, err := Bind(stmt, cat); err == nil {
			t.Errorf("Bind(%q) succeeded, want error", q)
		}
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := sql.Parse("select l_orderkey from lineitem a join lineitem b on a.l_orderkey = b.l_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(stmt, cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous bind err = %v", err)
	}
}

func TestBindCountStarOnly(t *testing.T) {
	n := bindQuery(t, "select count(*) from lineitem")
	proj := n.(*Project)
	ga := proj.Input.(*GroupAgg)
	if len(ga.Keys) != 0 || len(ga.Aggs) != 1 {
		t.Fatalf("keys=%d aggs=%d", len(ga.Keys), len(ga.Aggs))
	}
	// Scan still reads one column.
	var scan *Scan
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Project:
			walk(t.Input)
		case *GroupAgg:
			walk(t.Input)
		case *Scan:
			scan = t
		}
	}
	walk(n)
	if scan == nil || len(scan.Out) != 1 {
		t.Errorf("scan = %+v", scan)
	}
}

func TestTreeRendering(t *testing.T) {
	n := bindQuery(t, "select l_returnflag, sum(l_quantity) from lineitem where l_partkey = 1 group by l_returnflag order by l_returnflag limit 3")
	tree := Tree(n)
	for _, want := range []string{"limit 3", "sort", "project", "group by", "filter", "scan sys.lineitem"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestDriverRows: the adaptive fan-out must key off the rows that
// actually parallelize — the probe (left) side for joins, the sorted
// input for sorts — with the cost shape reported alongside.
func TestDriverRows(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		q     string
		rows  int
		shape string
	}{
		{"select l_tax from lineitem", 3, "scan"},
		{"select l_tax from lineitem where l_partkey = 1", 3, "scan"},
		{"select l_tax from lineitem order by l_tax", 3, "sort"},
		{"select l_tax from lineitem order by l_tax limit 2", 3, "sort"},
		// lineitem (3 rows) probes, orders (2 rows) builds.
		{"select l_tax, o_totalprice from lineitem, orders where l_orderkey = o_orderkey", 3, "join-probe"},
		// orders (2 rows) probes: the 3-row lineitem build side must not
		// drive the estimate (the largest scanned table would say 3).
		{"select o_totalprice, l_tax from orders, lineitem where o_orderkey = l_orderkey", 2, "join-probe"},
		{"select o_totalprice, l_tax from orders, lineitem where o_orderkey = l_orderkey order by o_totalprice", 2, "join-probe"},
		// The sort runs over the packed (tiny) group-by output, so it is
		// not the cost shape driving the fan-out — the scan below is.
		{"select l_returnflag, count(*) as n from lineitem group by l_returnflag order by l_returnflag", 3, "scan"},
		{"select distinct l_returnflag from lineitem order by l_returnflag", 3, "scan"},
	}
	for _, c := range cases {
		stmt, err := sql.Parse(c.q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.q, err)
		}
		tree, err := Bind(stmt, cat)
		if err != nil {
			t.Fatalf("Bind(%q): %v", c.q, err)
		}
		rows, shape := DriverRows(tree, cat)
		if rows != c.rows || shape != c.shape {
			t.Errorf("DriverRows(%q) = (%d, %q), want (%d, %q)", c.q, rows, shape, c.rows, c.shape)
		}
	}
}
