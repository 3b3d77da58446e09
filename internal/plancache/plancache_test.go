package plancache

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"stethoscope/internal/compiler"
	"stethoscope/internal/mal"
)

func planNamed(q string) *Entry {
	return &Entry{Plan: mal.NewPlan(q)}
}

func key(q string) Key { return Key{SQL: q, Partitions: 1, Passes: "cse,deadcode"} }

func TestGetPutAndStats(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key("q1")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("q1"), *planNamed("q1"))
	e, ok := c.Get(key("q1"))
	if !ok || e.Plan.Query != "q1" {
		t.Fatalf("expected q1 hit, got ok=%v", ok)
	}
	// Same SQL with different options is a distinct plan.
	if _, ok := c.Get(Key{SQL: "q1", Partitions: 8, Passes: "cse,deadcode"}); ok {
		t.Fatal("partition count must be part of the key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Len != 1 || st.Capacity != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New(3)
	for _, q := range []string{"a", "b", "c"} {
		c.Put(key(q), *planNamed(q))
	}
	// Touch "a" so "b" becomes the least recently used.
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a missing")
	}
	c.Put(key("d"), *planNamed("d"))
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, q := range []string{"a", "c", "d"} {
		if _, ok := c.Get(key(q)); !ok {
			t.Fatalf("%s unexpectedly evicted", q)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Len != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Most recently used first.
	ks := c.Keys()
	if len(ks) != 3 || ks[0].SQL != "d" {
		t.Fatalf("keys = %v", ks)
	}
}

func TestPutRefreshDoesNotGrow(t *testing.T) {
	c := New(2)
	c.Put(key("a"), *planNamed("a"))
	c.Put(key("a"), *planNamed("a2"))
	if c.Len() != 1 {
		t.Fatalf("len = %d after refresh", c.Len())
	}
	e, _ := c.Get(key("a"))
	if e.Plan.Query != "a2" {
		t.Fatalf("refresh did not replace entry: %q", e.Plan.Query)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("refresh must not evict: %+v", st)
	}
}

func TestClampedCapacity(t *testing.T) {
	c := New(0)
	c.Put(key("a"), *planNamed("a"))
	c.Put(key("b"), *planNamed("b"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamped)", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("q%d", (g+i)%32)
				if _, ok := c.Get(key(q)); !ok {
					c.Put(key(q), *planNamed(q))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Len > 16 {
		t.Fatalf("cache overflowed: %+v", st)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("lost gets: %+v", st)
	}
}

// TestBytesCountsMemoizedArtifacts: an entry's size grows by the dot
// text once DotText renders it, and the cache total is the entries plus
// their keys' statement text; a nil cache holds nothing. The plan has
// run, so its statement memo, which the dot labels slice, is rendered
// and counted already.
func TestBytesCountsMemoizedArtifacts(t *testing.T) {
	p := mal.NewPlan("q")
	col := p.Emit1("sql", "bind", mal.TBATInt, p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("c")), p.ConstOf(mal.Int64(0)))
	p.Emit0("sql", "resultSet", mal.VarArg(col))
	p.CachedStmt(p.Instrs[0]) // as the engine does on every run
	e := Entry{Plan: p, Aux: &Aux{}}
	before := e.Bytes()
	text := DotText(p, e.Aux)
	if got, want := e.Bytes()-before, int64(len(text)); got != want {
		t.Errorf("rendering the dot text grew the entry by %d bytes, want %d", got, want)
	}
	c := New(4)
	c.Put(key("q"), e)
	if got, want := Bytes(c, nil), e.Bytes()+int64(len("q")); got != want {
		t.Errorf("Bytes(cache) = %d, want %d", got, want)
	}
	if got := Bytes(nil, nil); got != 0 {
		t.Errorf("Bytes(nil) = %d", got)
	}
}

// TestBytesCountsSharedBodyOnce: instances of one template share its
// body, which Bytes counts once — with the template while the template
// table holds it, and still once after it is evicted and only the
// instances keep it alive; each instance counts only what it owns. The
// first instance, of the statement the template was compiled from,
// shares the template's constant table too, and counts none of it.
func TestBytesCountsSharedBodyOnce(t *testing.T) {
	p := mal.NewPlan("select a from t where b = 1")
	lifted := compiler.Lifted{Query: int(^p.OwnConstOf(mal.Str(p.Query))), Lits: []int{int(^p.OwnConstOf(mal.Int64(1)))}}
	col := p.Emit1("sql", "bind", mal.TBATInt, p.ConstOf(mal.Str("sys")), p.ConstOf(mal.Str("t")), p.ConstOf(mal.Str("b")), p.ConstOf(mal.Int64(0)))
	p.Emit1("algebra", "thetaselect", mal.TBATOID, mal.VarArg(col), p.ConstOf(mal.Str("=")), mal.Arg(^lifted.Lits[0]))
	tmpl := Template{Plan: p, Lifted: lifted}
	tkey := TemplateKey{Tree: "Filter{b = ?1}", Pattern: "0,"}
	ts := NewTemplates(4)
	ts.Put(tkey, tmpl)
	c := New(4)
	first := p.Instance(p.Query, p.Consts)
	if got, want := first.Bytes(), int64(unsafe.Sizeof(*first)); got != want {
		t.Errorf("an instance sharing its template's constant table counts %d bytes, want its header's %d", got, want)
	}
	e := Entry{Plan: first, Aux: &Aux{}}
	c.Put(key(p.Query), e)
	own := int64(len(p.Query)) + e.Bytes()
	for _, q := range []string{"select a from t where b = 2", "select a from t where b = 3"} {
		inst := tmpl.Instance(q, []mal.Value{mal.Int64(int64(len(q)))})
		if inst.Body() != p || &inst.Instrs[0] != &p.Instrs[0] {
			t.Fatal("an instance does not share its template's body")
		}
		e := Entry{Plan: inst, Aux: &Aux{}}
		c.Put(key(q), e)
		own += int64(len(q)) + e.Bytes()
	}
	keyBytes := int64(len(tkey.Tree) + len(tkey.Pattern))
	if got, want := Bytes(c, ts), own+keyBytes+tmpl.Bytes(); got != want {
		t.Errorf("Bytes with the template held = %d, want %d", got, want)
	}
	if got, want := Bytes(c, nil), own+p.Bytes(); got != want {
		t.Errorf("Bytes with the template evicted = %d, want %d", got, want)
	}
}
