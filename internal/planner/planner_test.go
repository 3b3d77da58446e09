package planner

import (
	"sync"
	"sync/atomic"
	"testing"

	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

var testCat = func() *storage.Catalog {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 7}); err != nil {
		panic(err)
	}
	return cat
}()

// countingPass counts how many compilations reach the optimizer — the
// observable "the chain actually ran" probe for coalescing tests.
type countingPass struct{ n *atomic.Int64 }

func (c countingPass) Name() string               { return "counting" }
func (c countingPass) Run(*mal.Plan) (int, error) { c.n.Add(1); return 0, nil }

// TestCompileFlightCoalescesConcurrentMisses pins the single-flight
// bugfix: concurrent identical Compile calls (the Explain race) must
// run the compilation chain once, not once per caller.
func TestCompileFlightCoalescesConcurrentMisses(t *testing.T) {
	var compiles atomic.Int64
	p := &Planner{
		Cat:      testCat,
		Cache:    plancache.New(8),
		Pipeline: optimizer.Pipeline{Passes: []optimizer.Pass{countingPass{&compiles}}},
		PassSpec: "counting",
		Flight:   NewCompileFlight(),
	}
	const callers = 16
	q := "select l_tax from lineitem where l_partkey=1"
	var wg sync.WaitGroup
	start := make(chan struct{})
	var cached atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := p.Compile(q, 1, false)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Plan == nil {
				t.Error("nil plan")
			}
			if c.Cached {
				cached.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	// Some callers may arrive after the leader published to the cache
	// (cache hit), the rest coalesce through the flight; either way the
	// chain runs exactly once.
	if got := compiles.Load(); got != 1 {
		t.Fatalf("compilation chain ran %d times for %d concurrent identical calls, want 1", got, callers)
	}
	if got := cached.Load(); got != callers-1 {
		t.Fatalf("%d of %d callers reported Cached, want %d (everyone but the leader)", got, callers, callers-1)
	}
	if n := p.Flight.InFlight(); n != 0 {
		t.Fatalf("flight not drained: %d in flight", n)
	}
}

// TestCompileFlightNilIsSolo: a Planner without a flight compiles every
// miss independently (the pre-existing behavior, still correct).
func TestCompileFlightNilIsSolo(t *testing.T) {
	var compiles atomic.Int64
	p := &Planner{
		Cat:      testCat,
		Pipeline: optimizer.Pipeline{Passes: []optimizer.Pass{countingPass{&compiles}}},
		PassSpec: "counting",
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Compile("select l_tax from lineitem", 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := compiles.Load(); got != 3 {
		t.Fatalf("no-cache no-flight planner compiled %d times, want 3", got)
	}
}

// TestCompileFlightDistinctKeys: different statements and partition
// counts are different keys and never coalesce.
func TestCompileFlightDistinctKeys(t *testing.T) {
	var compiles atomic.Int64
	p := &Planner{
		Cat:      testCat,
		Cache:    plancache.New(8),
		Pipeline: optimizer.Pipeline{Passes: []optimizer.Pass{countingPass{&compiles}}},
		PassSpec: "counting",
		Flight:   NewCompileFlight(),
	}
	q := "select l_tax from lineitem"
	if _, err := p.Compile(q, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(q, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(q+" where l_partkey = 1", 1, false); err != nil {
		t.Fatal(err)
	}
	if got := compiles.Load(); got != 3 {
		t.Fatalf("3 distinct keys compiled %d times, want 3", got)
	}
}
