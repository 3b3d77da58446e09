package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"
)

// This file is the seeded generator and the oracle: which statements each
// workload sends, in which order on which connection, and what a correct
// reply is. Everything here is a pure function of (workload, seed,
// connection index); the program under test only ever sees the generated
// statement text.

// template is one parameterised statement. radix is the size of each
// literal's range and render turns one digit per literal into single-line
// SQL (the wire protocol is line based). Ranges stay inside the generated
// data (orders 1992-01-01..1998-08-02, quantity 1..50, discount 0..0.10)
// so every rendering selects at least one row.
type template struct {
	id     string
	radix  []int
	render func(d []int) string
}

// space is the number of distinct renderings.
func (t template) space() uint64 {
	n := uint64(1)
	for _, r := range t.radix {
		n *= uint64(r)
	}
	return n
}

// at renders the x-th statement of the template's literal space (mixed
// radix, so distinct x below space() give distinct text).
func (t template) at(x uint64) string {
	d := make([]int, len(t.radix))
	for i, r := range t.radix {
		d[i] = int(x % uint64(r))
		x /= uint64(r)
	}
	return t.render(d)
}

func sqlDate(y int, m time.Month, day int) string {
	return "date '" + time.Date(y, m, day, 0, 0, 0, 0, time.UTC).Format("2006-01-02") + "'"
}

// between renders "between date A and date A+days" with A = y-01-01 + off.
func between(y, off, days int) string {
	return "between " + sqlDate(y, 1, 1+off) + " and " + sqlDate(y, 1, 1+off+days)
}

var (
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	shipModes = []string{"TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "REG AIR", "FOB"}
)

// The adapted TPC-H statements of internal/tpch with their literals opened
// up. The shapes (tables scanned, joins, grouping, ordering) are unchanged.
var (
	tplQ1 = template{"Q1", []int{180}, func(d []int) string {
		return "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, " +
			"avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order " +
			"from lineitem where l_shipdate <= " + sqlDate(1998, 6, 1+d[0]) +
			" group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus"
	}}
	tplQ3 = template{"Q3", []int{5, 31}, func(d []int) string {
		day := sqlDate(1995, 3, 1+d[1])
		return "select l_orderkey, sum(l_extendedprice) as revenue, o_orderdate from customer " +
			"join orders on c_custkey = o_custkey join lineitem on l_orderkey = o_orderkey " +
			"where c_mktsegment = '" + segments[d[0]] + "' and o_orderdate < " + day + " and l_shipdate > " + day +
			" group by l_orderkey, o_orderdate order by revenue desc, o_orderdate limit 10"
	}}
	tplQ5 = template{"Q5", []int{5, 1500}, func(d []int) string {
		return "select n_name, sum(l_extendedprice) as revenue from region " +
			"join nation on n_regionkey = r_regionkey join supplier on s_nationkey = n_nationkey " +
			"join lineitem on l_suppkey = s_suppkey join orders on o_orderkey = l_orderkey " +
			"where r_name = '" + regions[d[0]] + "' and o_orderdate " + between(1993, d[1], 365) +
			" group by n_name order by revenue desc"
	}}
	tplQ6 = template{"Q6", []int{1500, 7, 11}, func(d []int) string {
		return fmt.Sprintf("select sum(l_extendedprice) as revenue, count(*) as matched from lineitem "+
			"where l_shipdate %s and l_discount between 0.%02d and 0.%02d and l_quantity < %d",
			between(1993, d[0], 364), 1+d[1], 3+d[1], 20+d[2])
	}}
	tplQ10 = template{"Q10", []int{1600}, func(d []int) string {
		return "select c_custkey, c_name, sum(l_extendedprice) as revenue, n_name from customer " +
			"join orders on o_custkey = c_custkey join lineitem on l_orderkey = o_orderkey " +
			"join nation on n_nationkey = c_nationkey " +
			"where l_returnflag = 'R' and o_orderdate " + between(1993, d[0], 92) +
			" group by c_custkey, c_name, n_name order by revenue desc limit 20"
	}}
	tplQ12 = template{"Q12", []int{7, 6, 1500}, func(d []int) string {
		a := shipModes[d[0]]
		b := shipModes[(d[0]+1+d[1])%len(shipModes)]
		return "select l_shipmode, count(*) as line_count from orders join lineitem on l_orderkey = o_orderkey " +
			"where l_shipmode in ('" + a + "', '" + b + "') and l_receiptdate " + between(1993, d[2], 364) +
			" and l_commitdate < l_receiptdate and l_shipdate < l_commitdate group by l_shipmode order by l_shipmode"
	}}
	tplQ14 = template{"Q14", []int{1800, 31}, func(d []int) string {
		return "select count(*) as promo_lines, sum(l_extendedprice) as promo_revenue from lineitem " +
			"join part on p_partkey = l_partkey where p_type like 'PROMO%' and l_shipdate " + between(1993, d[0], 30+d[1])
	}}
	tplQ19 = template{"Q19", []int{5, 5, 5}, func(d []int) string {
		return fmt.Sprintf("select sum(l_extendedprice) as revenue from lineitem join part on p_partkey = l_partkey "+
			"where (p_brand = 'Brand#12' and l_quantity between %d and %d) "+
			"or (p_brand = 'Brand#23' and l_quantity between %d and %d) "+
			"or (p_brand = 'Brand#34' and l_quantity between %d and %d)",
			1+d[0], 11+d[0], 8+d[1], 18+d[1], 18+d[2], 28+d[2])
	}}
	// tplPoint is the paper's Figure-1 point filter, keyed on the order
	// instead of the part: order keys are dense 1..1500000*SF, so at SF 0.01
	// there are 15000 distinct texts, each selecting 1 to 7 rows.
	tplPoint = template{"QX1", []int{15000}, func(d []int) string {
		return fmt.Sprintf("select l_tax from lineitem where l_orderkey=%d", 1+d[0])
	}}
	// tplWide is the 8-column projection QX2. Quantities are whole numbers
	// and discounts whole cents, so every rendering selects the same rows
	// (quantity > 10, discount <= 0.04) under a different statement text:
	// the reply size, and so the work, does not depend on the seed.
	tplWide = template{"QX2", []int{10, 9}, func(d []int) string {
		return fmt.Sprintf("select l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate "+
			"from lineitem where l_quantity > 10.%d and l_discount < 0.04%d", d[0], 1+d[1])
	}}
)

// The eight adapted TPC-H statements and the point filter. Nine, not eight:
// every template is as frequent as every other, and with an even count the
// median latency would sit on the border between two templates' clusters and
// jump from one to the other.
var analyticTemplates = []template{tplQ1, tplQ3, tplQ5, tplQ6, tplQ10, tplQ12, tplQ14, tplQ19, tplPoint}

// workload describes one set of inputs. why is carried into BENCHMARK.json.
type workload struct {
	name, why string
	sf        float64
	analyze   bool // the client half: no server, the child runs the analysis loop
	persisted bool // set-up persists the dataset and the server opens it with OpenPath
	history   bool // trace store on; connection 1 reads it while connection 0 writes
	parts     int  // SET partitions for every querying connection; 0 keeps the session default, auto
	templates []template
	variants  int   // literal variants per template in the fixed pool; 0 = a fresh literal on every request
	cycle     []int // ad hoc: the order templates take turns in, as indexes into templates
	tracedOps int   // ops the traced pass replays
}

var workloads = []*workload{
	{
		name: "serve-analytic",
		why: "36 cached statements (8 TPC-H templates and the point filter) at SF 0.05, replies under 1 KB: " +
			"engine kernels and the scheduler are most of every op; kernel, scheduler and lowering changes show here",
		sf: 0.05, templates: analyticTemplates, variants: 4, tracedOps: 200,
	},
	{
		name: "serve-adhoc",
		why: "statement text never repeats, 64 partitions over 60k rows: parse, bind, tune, lower and optimize dominate, " +
			"the plan cache always misses and evicts, profiler cost per unit of work is highest",
		sf: 0.01, parts: 64,
		// The point filter goes twice round a cycle of five: with four
		// equally frequent templates the median latency would sit on the
		// border between two of them and jump from one to the other.
		templates: []template{tplPoint, tplQ6, tplQ12, tplQ14}, cycle: []int{0, 1, 0, 2, 3}, tracedOps: 200,
	},
	{
		name: "serve-wide",
		why: "2 MB replies from a dataset persisted in set-up and opened with OpenPath: result materialisation, " +
			"cell formatting and socket writes dominate, and set-up covers batstore",
		sf: 0.02, persisted: true, templates: []template{tplWide}, variants: 5, tracedOps: 200,
	},
	{
		name: "serve-history",
		why: "the analytic statements recorded into a small rolling trace store while a second connection reads it: " +
			"prices the history tee and shows appends, reads and compaction contending",
		sf: 0.01, history: true, parts: 16,
		templates: analyticTemplates, variants: 4, tracedOps: 200,
	},
	{
		name: "analyze-offline",
		why: "the client half alone: dot and trace text through layout, SVG, recolour, replay and report on 70 to 2300 node plans; " +
			"time to picture, which a server-side change must leave flat",
		sf: 0.01, analyze: true, tracedOps: 60,
	},
}

// session is what a querying connection sends before its first statement.
func (w *workload) session() []string {
	if w.parts == 0 {
		return nil
	}
	return []string{fmt.Sprintf("SET partitions %d", w.parts)}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng returns the generator for one (workload, seed, salt) triple.
func (w *workload) rng(seed int64, salt string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", w.name, seed, salt)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// pool is the fixed statement set of a pool workload: variants distinct
// renderings of every template, template-major.
func (w *workload) pool(seed int64) []string {
	if w.variants == 0 {
		return nil
	}
	r := w.rng(seed, "pool")
	var out []string
	for _, t := range w.templates {
		seen := map[uint64]bool{}
		for len(seen) < w.variants {
			x := uint64(r.Int63n(int64(t.space())))
			if !seen[x] {
				seen[x] = true
				out = append(out, t.at(x))
			}
		}
	}
	return out
}

// stream yields the statements one connection sends, in order.
type stream interface{ next() string }

// stream returns connection conn's statement stream out of nconn querying
// connections. Pool workloads give each connection a disjoint share of the
// pool (every template in every share), so no two connections ever run the
// same statement at once and the shared-work gate has nothing to attach.
// The connection walks its share round and round in one seeded order: any
// len(share) consecutive ops are then the same work, and where the window
// happens to start or stop changes the statement mix by less than one op.
// Ad-hoc workloads never repeat a statement, on any connection.
func (w *workload) stream(seed int64, conn, nconn int) stream {
	r := w.rng(seed, fmt.Sprintf("conn%d", conn))
	if w.variants > 0 {
		var mine []string
		for i, s := range w.pool(seed) {
			if i%nconn == conn {
				mine = append(mine, s)
			}
		}
		r.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		return &poolStream{stmts: mine}
	}
	s := &adhocStream{tpls: w.templates, cycle: w.cycle, per: make([]uint64, len(w.templates)), conn: uint64(conn), nconn: uint64(nconn)}
	for _, k := range w.cycle {
		s.nth = append(s.nth, s.per[k])
		s.per[k]++
	}
	r = w.rng(seed, "literals") // one walk per template, shared by every connection
	for _, t := range w.templates {
		// x -> mul*x + off is a bijection on [0, space) when mul is
		// coprime to space, so the walk visits every literal once.
		mul := uint64(r.Int63())%t.space() | 1
		for gcd(mul, t.space()) != 1 {
			mul += 2
		}
		s.mul = append(s.mul, mul)
		s.off = append(s.off, uint64(r.Int63())%t.space())
	}
	return s
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

type poolStream struct {
	stmts []string
	pos   int
}

func (s *poolStream) next() string {
	s.pos++
	return s.stmts[(s.pos-1)%len(s.stmts)]
}

type adhocStream struct {
	tpls        []template
	cycle       []int    // template index at each position of the cycle
	nth         []uint64 // which of its template's turns in the cycle a position is
	per         []uint64 // turns each template has in one cycle
	mul, off    []uint64
	conn, nconn uint64
	i           uint64
}

func (s *adhocStream) next() string {
	n := uint64(len(s.cycle))
	pos, round := s.i%n, s.i/n
	s.i++
	k := s.cycle[pos]
	t := s.tpls[k]
	// u counts the template's turns across every connection, so no two
	// requests anywhere get the same literal.
	u := (round*s.per[k]+s.nth[pos])*s.nconn + s.conn
	return t.at((s.mul[k]*(u%t.space()) + s.off[k]) % t.space())
}

// digest is the SHA-256 of a reply body (everything between the status line
// and the "." terminator).
type digest [sha256.Size]byte

// oracle maps a statement to the digest of its correct reply, taken from a
// sequential (workers 1) execution at the same partition geometry. The
// engine's contract is byte identity across worker counts; partition counts
// re-associate float sums, so the geometry is held fixed.
type oracle map[string]digest

// oneLine collapses the multi-line statements of internal/tpch.
func oneLine(sql string) string { return strings.Join(strings.Fields(sql), " ") }
