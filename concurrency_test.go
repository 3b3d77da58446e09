// Serving-layer tests: the shared plan cache, DB.Stats, and the
// 32-goroutine mixed-workload stress test the CI race job runs.
package stethoscope

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestPlanCacheHitsAndStats(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "select l_tax from lineitem where l_partkey=1"

	r1, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.CacheHit {
		t.Fatal("first execution cannot be a cache hit")
	}
	r2, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.CacheHit {
		t.Fatal("second execution should hit the plan cache")
	}
	if r1.RowCount() != r2.RowCount() {
		t.Fatalf("cached run returned %d rows, cold returned %d", r2.RowCount(), r1.RowCount())
	}
	// A different partition count compiles separately.
	r3, err := db.Exec(ctx, q, ExecPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.CacheHit {
		t.Fatal("changed partitions must not reuse the cached plan")
	}
	// Explain shares the cache with Exec.
	if _, err := db.Explain(q); err != nil {
		t.Fatal(err)
	}

	st := db.Stats()
	if st.Cache.Hits < 2 || st.Cache.Misses < 2 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Execs != 3 {
		t.Fatalf("execs = %d, want 3", st.Execs)
	}
	if st.Events == 0 {
		t.Fatalf("event counter not tracked: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d at rest", st.InFlight)
	}
}

// TestStressMixedWorkload fires 32 goroutines of mixed Exec / Explain /
// DumpCSV against one DB. Run under -race (the CI race job does) this
// is the serving-layer reentrancy proof: shared engine, shared plan
// cache, shared catalog, per-run isolation.
func TestStressMixedWorkload(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		"select l_tax from lineitem where l_partkey=1",
		"select l_orderkey from lineitem where l_quantity > 30",
		"select count(*) from lineitem",
		"select l_extendedprice * (1 - l_discount) as revenue from lineitem where l_partkey = 2",
	}
	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					q := queries[(g+i)%len(queries)]
					workers := 1
					if (g+i)%4 == 1 {
						workers = 4
					}
					res, err := db.Exec(ctx, q, ExecPartitions(1+(g+i)%3), ExecWorkers(workers))
					if err != nil {
						errs <- fmt.Errorf("exec %q: %w", q, err)
						return
					}
					if res.TraceLen() == 0 {
						errs <- fmt.Errorf("exec %q produced no trace", q)
						return
					}
				case 1:
					q := queries[(g+i)%len(queries)]
					listing, err := db.Explain(q)
					if err != nil {
						errs <- fmt.Errorf("explain %q: %w", q, err)
						return
					}
					if !strings.Contains(listing, "function user.main") {
						errs <- fmt.Errorf("explain %q returned garbage", q)
						return
					}
				default:
					if err := db.DumpCSV(io.Discard, "region", 0); err != nil {
						errs <- fmt.Errorf("dumpcsv: %w", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := db.Stats()
	if st.Cache.Hits == 0 {
		t.Error("stress run never hit the plan cache")
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after all runs returned", st.InFlight)
	}
}
