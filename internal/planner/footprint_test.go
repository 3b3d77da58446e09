package planner

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/tpch"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

func newFootprintPlanner(capacity int) *Planner {
	pl := optimizer.Default()
	return &Planner{Cat: testCat, Cache: plancache.New(capacity), Templates: plancache.NewTemplates(capacity),
		Pipeline: pl, PassSpec: pl.Spec()}
}

// adhocStatement renders the i-th of a never-repeating stream in the
// serve-adhoc benchmark's four shapes — the point filter, Q6, Q12 and
// Q14 — with every literal of each shape varying along the stream.
func adhocStatement(i int) string {
	day := func(offset int) string {
		return "date '" + time.Date(1993, 1, 1+offset, 0, 0, 0, 0, time.UTC).Format("2006-01-02") + "'"
	}
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	switch i % 4 {
	case 0:
		return fmt.Sprintf("select l_tax from lineitem where l_orderkey=%d", 1+i)
	case 1:
		return fmt.Sprintf("select sum(l_extendedprice) as revenue, count(*) as matched from lineitem "+
			"where l_shipdate between %s and %s and l_discount between 0.0%d and 0.0%d and l_quantity < %d",
			day(i%1500), day(i%1500+364), 1+i%5, 3+i%5, 20+i)
	case 2:
		a := i / 4 % len(modes)
		b := (a + 1 + i/28%(len(modes)-1)) % len(modes)
		return fmt.Sprintf("select l_shipmode, count(*) as line_count from orders join lineitem on l_orderkey = o_orderkey "+
			"where l_shipmode in ('%s', '%s') and l_receiptdate between %s and %s "+
			"and l_commitdate < l_receiptdate and l_shipdate < l_commitdate and l_quantity < %d group by l_shipmode order by l_shipmode",
			modes[a], modes[b], day(i%1500), day(i%1500+364), 1+i)
	default:
		kinds := []string{"PROMO", "STANDARD", "ECONOMY", "LARGE", "SMALL"}
		return fmt.Sprintf("select count(*) as promo_lines, sum(l_extendedprice) as promo_revenue from lineitem "+
			"join part on p_partkey = l_partkey where p_type like '%s%%' and l_shipdate between %s and %s "+
			"and l_quantity < %d", kinds[i/4%len(kinds)], day(i%1800), day(i%1800+30+i%31), 1+i)
	}
}

// TestPlanFootprintCeilings pins what one cached 64-partition plan
// weighs: the Q6 statement (1038 instructions) as the plan cache holds
// it, before and after the engine renders its statement memo, and what
// compiling it allocates — all measured as heap deltas, so the ceilings
// hold whatever the accounting in Plan.Bytes says. Its instance leg
// pins a second Q6 text: an instance of the first one's template, which
// copies no instruction and allocates a small part of a compile.
func TestPlanFootprintCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are distorted under -race")
	}
	const (
		// The plan cache holds the first instance of the template the
		// compile made: the template itself, under a plan header that
		// shares its constant table.
		maxPlan    = 120 << 10
		maxEntry   = 240 << 10
		maxCompile = 1200 << 10
		// An instance holds its header and constant table (about 5 KB)
		// until the engine renders its statement memo; instantiating
		// parses and binds the statement (about 18 KB measured). The
		// memo is sparse: an index entry per instruction (4 KB) and the
		// text of only the statements that read one of the instance's
		// own literals, each of Q6's five read by 64 selects (about
		// 15 KB); every other statement is the body's. 24.7 KB measured
		// with the memo, against 67.5 KB when an instance rendered every
		// statement; the ceiling leaves about 30 % for drift.
		maxInstance      = 8 << 10
		maxInstanceEntry = 32 << 10
		maxInstantiation = 32 << 10
	)
	q, _ := tpch.QueryByID("Q6")
	p := newFootprintPlanner(8)
	h0, a0 := liveHeap(), totalAlloc()
	c, err := p.Compile(q.SQL, 64, false)
	compile := totalAlloc() - a0
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Plan.Instrs); n != 1038 {
		t.Fatalf("Q6 at 64 partitions has %d instructions; the ceilings are set for 1038", n)
	}
	plan := liveHeap() - h0
	for _, in := range c.Plan.Instrs {
		c.Plan.CachedStmt(in)
	}
	entry := liveHeap() - h0
	t.Logf("plan %d B, entry %d B (Entry.Bytes %d B), compile %d B", plan, entry, c.Entry.Bytes(), compile)
	if plan > maxPlan {
		t.Errorf("cached plan holds %d bytes, ceiling %d", plan, maxPlan)
	}
	if entry > maxEntry {
		t.Errorf("cached entry with its statement memo holds %d bytes, ceiling %d", entry, maxEntry)
	}
	if compile > maxCompile {
		t.Errorf("compiling allocated %d bytes, ceiling %d", compile, maxCompile)
	}

	other := strings.NewReplacer("1994-01-01", "1995-02-01", "1994-12-31", "1996-01-31",
		"0.05", "0.04", "0.07", "0.06", "< 24", "< 23").Replace(q.SQL)
	h0, a0 = liveHeap(), totalAlloc()
	ci, err := p.Compile(other, 64, false)
	instantiate := totalAlloc() - a0
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Instantiated || ci.Plan.Body() != c.Plan.Body() || &ci.Plan.Instrs[0] != &c.Plan.Instrs[0] {
		t.Fatalf("the second Q6 text was not an instance sharing the first one's instructions (instantiated %t)", ci.Instantiated)
	}
	instance := liveHeap() - h0
	for _, in := range ci.Plan.Instrs {
		ci.Plan.CachedStmt(in)
	}
	instanceEntry := liveHeap() - h0
	t.Logf("instance %d B, instance entry %d B (Entry.Bytes %d B), instantiation %d B", instance, instanceEntry, ci.Entry.Bytes(), instantiate)
	if instance > maxInstance {
		t.Errorf("cached instance holds %d bytes, ceiling %d", instance, maxInstance)
	}
	if instanceEntry > maxInstanceEntry {
		t.Errorf("cached instance with its statement memo holds %d bytes, ceiling %d", instanceEntry, maxInstanceEntry)
	}
	if instantiate > maxInstantiation {
		t.Errorf("instantiating allocated %d bytes, ceiling %d", instantiate, maxInstantiation)
	}
	runtime.KeepAlive(p)
}

// TestCacheBytesAttribution: after a full cache of cold 64-partition
// compiles, plancache.Bytes (the STATS cache_bytes field) accounts for
// the heap the cache holds to within 25 %, before and after the entries'
// statement memos and dot texts are rendered.
func TestCacheBytesAttribution(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are distorted under -race")
	}
	p := newFootprintPlanner(plancache.DefaultSize)
	check := func(stage string, h0 int64) {
		t.Helper()
		live, got := liveHeap()-h0, plancache.Bytes(p.Cache, p.Templates)
		t.Logf("%s: cache_bytes %d, live-heap delta %d", stage, got, live)
		if got < live*3/4 || got > live*5/4 {
			t.Errorf("%s: cache_bytes %d is not within 25%% of the live-heap delta %d", stage, got, live)
		}
	}
	h0 := liveHeap()
	for i := 0; i < plancache.DefaultSize; i++ {
		if _, err := p.Compile(adhocStatement(i), 64, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Cache.Stats(); st.Len != plancache.DefaultSize || st.Hits != 0 {
		t.Fatalf("cache after %d distinct statements: %+v", plancache.DefaultSize, st)
	}
	check("compiled", h0)
	for i, k := range p.Cache.Keys() {
		e, _ := p.Cache.Peek(k)
		for _, in := range e.Plan.Instrs {
			e.Plan.CachedStmt(in)
		}
		if i%4 == 0 {
			plancache.DotText(e.Plan, e.Aux)
		}
	}
	check("rendered", h0)
	runtime.KeepAlive(p)
}
