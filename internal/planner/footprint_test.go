package planner

import (
	"fmt"
	"runtime"
	"testing"

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
	return &Planner{Cat: testCat, Cache: plancache.New(capacity), Pipeline: pl, PassSpec: pl.Spec()}
}

// adhocStatement renders the i-th of a never-repeating stream in the
// serve-adhoc benchmark's four shapes: the point filter, Q6, Q12 and Q14.
func adhocStatement(i int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf("select l_tax from lineitem where l_orderkey=%d", 1+i)
	case 1:
		return fmt.Sprintf("select sum(l_extendedprice) as revenue, count(*) as matched from lineitem "+
			"where l_shipdate between date '1993-01-01' and date '1994-01-01' and l_discount between 0.0%d and 0.0%d and l_quantity < %d",
			1+i%5, 3+i%5, 20+i)
	case 2:
		return fmt.Sprintf("select l_shipmode, count(*) as line_count from orders join lineitem on l_orderkey = o_orderkey "+
			"where l_shipmode in ('MAIL', 'AIR') and l_receiptdate between date '1994-01-01' and date '1995-01-01' "+
			"and l_commitdate < l_receiptdate and l_shipdate < l_commitdate and l_quantity < %d group by l_shipmode order by l_shipmode", 1+i)
	default:
		return fmt.Sprintf("select count(*) as promo_lines, sum(l_extendedprice) as promo_revenue from lineitem "+
			"join part on p_partkey = l_partkey where p_type like 'PROMO%%' and l_shipdate between date '1995-06-01' and date '1995-07-20' "+
			"and l_quantity < %d", 1+i)
	}
}

// TestPlanFootprintCeilings pins what one cached 64-partition plan
// weighs: the Q6 statement (1038 instructions) as the plan cache holds
// it, before and after the engine renders its statement memo, and what
// compiling it allocates — all measured as heap deltas, so the ceilings
// hold whatever the accounting in Plan.Bytes says.
func TestPlanFootprintCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are distorted under -race")
	}
	const (
		maxPlan    = 120 << 10
		maxEntry   = 240 << 10
		maxCompile = 1200 << 10
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
		live, got := liveHeap()-h0, plancache.Bytes(p.Cache)
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
