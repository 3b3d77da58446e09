package tpch

import "strings"

// The paper demonstrates Stethoscope "while analyzing long running TPC-H
// queries". This file carries the TPC-H query set adapted to the
// reproduction's SQL subset (no CASE, no LIKE, no subqueries, explicit
// join syntax where the original uses comma joins with WHERE equalities —
// both forms are accepted by the parser). Each query preserves the plan
// shape that matters to the visualizer: which tables are scanned, what is
// filtered, joined, grouped and ordered.

// Query is one benchmark query with its provenance.
type Query struct {
	// ID is the TPC-H query number ("Q1") or a reproduction-specific tag.
	ID string
	// Name is a short description.
	Name string
	// SQL is the query text in the supported subset.
	SQL string
	// Adapted notes how the text deviates from the official TPC-H query.
	Adapted string
}

// Queries returns the adapted TPC-H workload, ordered by query number.
func Queries() []Query {
	return []Query{
		{
			ID:   "Q1",
			Name: "pricing summary report",
			SQL: `select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
				sum(l_extendedprice) as sum_base_price, avg(l_quantity) as avg_qty,
				avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order
				from lineitem
				where l_shipdate <= date '1998-09-02'
				group by l_returnflag, l_linestatus
				order by l_returnflag, l_linestatus`,
			Adapted: "sum(price*(1-disc)) composite aggregates dropped (aggregates over expressions are restricted to plain columns); date arithmetic folded to a literal",
		},
		{
			ID:   "Q3",
			Name: "shipping priority",
			SQL: `select l_orderkey, sum(l_extendedprice) as revenue, o_orderdate
				from customer
				join orders on c_custkey = o_custkey
				join lineitem on l_orderkey = o_orderkey
				where c_mktsegment = 'BUILDING' and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'
				group by l_orderkey, o_orderdate
				order by revenue desc, o_orderdate
				limit 10`,
			Adapted: "revenue is sum(extendedprice) instead of sum(extendedprice*(1-discount)); o_shippriority column not generated",
		},
		{
			ID:   "Q5",
			Name: "local supplier volume",
			SQL: `select n_name, sum(l_extendedprice) as revenue
				from region
				join nation on n_regionkey = r_regionkey
				join supplier on s_nationkey = n_nationkey
				join lineitem on l_suppkey = s_suppkey
				join orders on o_orderkey = l_orderkey
				where r_name = 'ASIA' and o_orderdate between date '1994-01-01' and date '1995-01-01'
				group by n_name
				order by revenue desc`,
			Adapted: "customer-nation equality dropped (single join path per table); revenue simplified as in Q3",
		},
		{
			ID:   "Q6",
			Name: "forecasting revenue change",
			SQL: `select sum(l_extendedprice) as revenue, count(*) as matched
				from lineitem
				where l_shipdate between date '1994-01-01' and date '1994-12-31'
				and l_discount between 0.05 and 0.07 and l_quantity < 24`,
			Adapted: "sum(extendedprice*discount) simplified to sum(extendedprice) plus a row count",
		},
		{
			ID:   "Q10",
			Name: "returned item reporting",
			SQL: `select c_custkey, c_name, sum(l_extendedprice) as revenue, n_name
				from customer
				join orders on o_custkey = c_custkey
				join lineitem on l_orderkey = o_orderkey
				join nation on n_nationkey = c_nationkey
				where l_returnflag = 'R' and o_orderdate between date '1993-10-01' and date '1994-01-01'
				group by c_custkey, c_name, n_name
				order by revenue desc
				limit 20`,
			Adapted: "revenue simplified; address/phone/comment columns not generated",
		},
		{
			ID:   "Q12",
			Name: "shipping modes and order priority",
			SQL: `select l_shipmode, count(*) as line_count
				from orders
				join lineitem on l_orderkey = o_orderkey
				where l_shipmode in ('MAIL', 'SHIP')
				and l_receiptdate between date '1994-01-01' and date '1994-12-31'
				and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
				group by l_shipmode
				order by l_shipmode`,
			Adapted: "high/low-priority CASE split dropped; single count per mode",
		},
		{
			ID:   "Q14",
			Name: "promotion effect",
			SQL: `select count(*) as promo_lines, sum(l_extendedprice) as promo_revenue
				from lineitem
				join part on p_partkey = l_partkey
				where p_type like 'PROMO%'
				and l_shipdate between date '1995-09-01' and date '1995-10-01'`,
			Adapted: "ratio computed by the caller; LIKE supported natively",
		},
		{
			ID:   "Q19",
			Name: "discounted revenue (disjunctive predicate)",
			SQL: `select sum(l_extendedprice) as revenue
				from lineitem
				join part on p_partkey = l_partkey
				where (p_brand = 'Brand#12' and l_quantity between 1 and 11)
				or (p_brand = 'Brand#23' and l_quantity between 10 and 20)
				or (p_brand = 'Brand#34' and l_quantity between 20 and 30)`,
			Adapted: "container/shipmode terms dropped; keeps the disjunctive structure that exercises the boolean-column path",
		},
		{
			ID:      "QX1",
			Name:    "paper Figure 1 query",
			SQL:     "select l_tax from lineitem where l_partkey=1",
			Adapted: "verbatim from the paper",
		},
		{
			ID:   "QX2",
			Name: "wide projection for large plans (Figure 2 driver)",
			SQL: `select l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate
				from lineitem where l_quantity > 10 and l_discount < 0.05`,
			Adapted: "reproduction-specific: at 64 mitosis partitions this exceeds 1000 plan nodes",
		},
	}
}

// SweepQueries returns the statements the lowering sweeps run (the
// compiler's instruction inventory, the mode-agreement test, the
// lowering fuzz seeds): the bundled queries, whitespace collapsed to one
// line, followed by the shapes the lowering distinguishes and the
// bundled workload does not reach — a top-k sort over a bare scan,
// distinct, a plain filter, count(*), global min/max/sum over an empty
// selection (the empty-piece guard), a filtered comma join, a bare
// projection under a limit (the one shape matfold folds) and avg with
// and without keys (the packed fallback).
func SweepQueries() []string {
	var stmts []string
	for _, q := range Queries() {
		stmts = append(stmts, strings.Join(strings.Fields(q.SQL), " "))
	}
	return append(stmts,
		"select l_orderkey from lineitem order by l_orderkey limit 5",
		"select distinct l_returnflag from lineitem",
		"select l_orderkey, l_quantity from lineitem where l_quantity < 3",
		"select count(*) from lineitem",
		"select min(l_quantity), max(l_quantity), sum(l_extendedprice) from lineitem where l_quantity > 100",
		"select o_orderkey, l_quantity from lineitem, orders where l_orderkey = o_orderkey and l_quantity < 2",
		"select l_orderkey from lineitem limit 3",
		"select avg(l_quantity) from lineitem",
		"select l_returnflag, avg(l_quantity) from lineitem group by l_returnflag",
	)
}

// QueryByID looks a query up by its ID.
func QueryByID(id string) (Query, bool) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}
