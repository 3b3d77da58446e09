// Package plancache implements the shared compiled-plan cache of the
// serving layer: an LRU (internal/keyed) from the statement key to the
// optimized plan. Repeated statements skip the whole parse → bind →
// compile → optimize chain — MonetDB keeps the same structure per
// session in its MAL block cache; here one cache is shared by every
// session of a DB so concurrent clients warm it for each other.
//
// Beneath it sits a second LRU of plan templates, keyed by the bound
// tree with its literal values masked: a statement that misses the
// text-keyed cache but binds to the same tree as an earlier one, up to
// literal values, gets an instance of that statement's plan with its
// own literals, the way MonetDB's SQL front end caches a query
// as a MAL function taking its literals as arguments. DESIGN.md
// "Shared-work serving" has the two keys side by side.
//
// Cached plans are shared, not copied: a plan handed out by Get is
// executed concurrently by many queries, so holders must treat it as
// immutable (the engine only reads plans; optimizer passes run on
// clones before insertion).
package plancache

import (
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"stethoscope/internal/compiler"
	"stethoscope/internal/dot"
	"stethoscope/internal/keyed"
	"stethoscope/internal/mal"
	"stethoscope/internal/optimizer"
)

// DefaultSize is the capacity of every serving plan cache: the facade's
// and the standalone server's.
const DefaultSize = 256

// Key is the statement key, declared once and at one strength for every
// reuse layer — the plan cache, the compile flight, and (as
// sharedwork.Key) the run flight; DESIGN.md
// "Shared-work serving" has the full rationale. Only planner.Compile
// builds one. The worker count is deliberately absent: the combine
// stage packs partial results in slice order, so scheduling parallelism
// never changes bytes. It keys by the full text: two statements that
// differ only in literals may share a template (TemplateKey), but never
// a cache entry, a compile flight or a run.
type Key struct {
	// SQL is the statement text, byte for byte (no normalization —
	// differing whitespace compiles twice, which is cheap and safe).
	SQL string
	// Partitions is the requested mitosis partition count — normalized
	// by the caller (out-of-range values clamp to 1 before key
	// construction, so partitions=0 can never alias the partitions=1
	// plan under a second key), with the adaptive sentinel
	// (stethoscope.Auto) as its own key value: its resolution is
	// deterministic per catalog and lives in Entry.Partitions.
	Partitions int
	// Passes names the optimizer pipeline, e.g. "cse,deadcode".
	Passes string
}

// Entry is a cached compilation: the optimized plan and what the
// optimizer did to it, plus a holder for artifacts derived from the
// plan on demand.
type Entry struct {
	Plan *mal.Plan
	Opt  optimizer.Stats
	// Partitions is the mitosis fan-out actually compiled into the
	// plan. It equals Key.Partitions except for auto compilations,
	// where the key carries the sentinel and this carries the
	// resolution.
	Partitions int
	// TuneReason records why an auto compilation chose its fan-out
	// (empty for explicit partition counts). Memoized here so cache
	// hits still report the reason in Result.Stats and the history.
	TuneReason string
	// Aux memoizes derived per-plan artifacts (e.g. the dot export the
	// history store records per run). It lives and dies with the cache
	// entry, so memoized artifacts never outlive their plan.
	// planner.Compile fills it on every miss; DotText tolerates nil.
	Aux *Aux
}

// Aux memoizes expensive artifacts derived from an immutable cached
// plan. It is safe for concurrent use by every session sharing the
// entry.
type Aux struct {
	dotOnce sync.Once
	dot     string
	mu      sync.Mutex
	dotLen  int64 // len(dot) once rendered, for Entry.Bytes; guarded by mu
}

// DotText renders a plan's dot-file text, memoized in aux when one
// exists — the shared helper of the facade Exec path and the server
// QUERY path, so a cached plan's dot export is rendered once no matter
// how many sessions trace or record it.
func DotText(plan *mal.Plan, aux *Aux) string {
	if aux == nil {
		return dot.Export(plan).Marshal()
	}
	aux.dotOnce.Do(func() {
		aux.dot = dot.Export(plan).Marshal()
		aux.mu.Lock()
		aux.dotLen = int64(len(aux.dot))
		aux.mu.Unlock()
	})
	return aux.dot
}

// Bytes is the entry's resident size: the plan (mal.Plan.Bytes, with
// its statement memo once rendered), the memoized dot text once
// rendered, and the entry's own strings. Safe to call while sessions
// render the memoized artifacts.
func (e Entry) Bytes() int64 {
	n := int64(unsafe.Sizeof(e)) + int64(len(e.TuneReason)) + e.Plan.Bytes()
	if e.Aux != nil {
		e.Aux.mu.Lock()
		n += int64(unsafe.Sizeof(*e.Aux)) + e.Aux.dotLen
		e.Aux.mu.Unlock()
	}
	return n
}

// Bytes is the resident size of everything the plan cache and the
// template table hold: every entry's and template's Bytes plus its key's
// text, and once each the body of a template that only instances still
// share. The stetho_plancache_bytes gauge and the STATS cache_bytes
// field report it.
func Bytes(c *Cache, t *Templates) int64 {
	var n int64
	bodies := map[*mal.Plan]bool{}
	for _, k := range t.Keys() {
		if tp, ok := t.Peek(k); ok {
			n += int64(len(k.Tree)+len(k.Pattern)) + tp.Bytes()
			bodies[tp.Plan] = true
		}
	}
	for _, k := range c.Keys() {
		if e, ok := c.Peek(k); ok {
			n += int64(len(k.SQL)) + e.Bytes()
			if b := e.Plan.Body(); b != nil && !bodies[b] {
				bodies[b] = true
				n += b.Bytes()
			}
		}
	}
	return n
}

// TemplateKey is the key of a plan template: everything a statement's
// plan depends on but the values of its source literals and its text.
// The compiler lowers the bound tree alone and puts the text in a slot
// of its own (compiler.Lifted), so statements that differ in literal
// values, whitespace or keyword case share a template.
type TemplateKey struct {
	// Tree is the bound tree's fingerprint (algebra.Fingerprint): the
	// tree with its source literals' values masked. What the binder and
	// the constant folder read of the literals beyond their values
	// (output names, folded operands) stays in it, as does a LIMIT
	// count.
	Tree string
	// Partitions and Passes are Key's.
	Partitions int
	Passes     string
	// Pattern records which source literals are identical constants
	// (Pattern): the compiler gives those one slot, and the optimizer
	// may then merge the instructions that read them.
	Pattern string
}

// Pattern encodes which of lits are identical constants: for each, the
// number of the first one identical to it.
func Pattern(lits []mal.Value) string {
	b := make([]byte, 0, 2*len(lits))
	for i, v := range lits {
		j := 0
		for j < i && !lits[j].Identical(v) {
			j++
		}
		b = append(strconv.AppendInt(b, int64(j), 10), ',')
	}
	return string(b)
}

// Template is the compiled plan of a template key: the optimized plan
// of the first statement compiled under the key, and where that plan holds the
// statement text and the literals.
type Template struct {
	// Plan is never run itself: every statement gets an Instance.
	Plan   *mal.Plan
	Opt    optimizer.Stats
	Lifted compiler.Lifted
}

// Instance is the template's plan for another statement of its key:
// query is its text and lits its source literals (compiler.Literals).
// It shares the template's body and owns a copy of the constant table.
func (t Template) Instance(query string, lits []mal.Value) *mal.Plan {
	consts := slices.Clone(t.Plan.Consts)
	consts[t.Lifted.Query] = mal.Str(query)
	for i, slot := range t.Lifted.Lits {
		if slot >= 0 {
			consts[slot] = lits[i]
		}
	}
	return t.Plan.Instance(query, consts)
}

// Bytes is the template's resident size: its plan whole, body included,
// and its own fields.
func (t Template) Bytes() int64 {
	return int64(unsafe.Sizeof(t)) + int64(cap(t.Lifted.Lits))*int64(unsafe.Sizeof(int(0))) + t.Plan.Bytes()
}

// Templates is the template LRU beneath the plan cache, of the same
// capacity. A nil *Templates always misses.
type Templates = keyed.LRU[TemplateKey, Template]

// NewTemplates returns a template table holding up to capacity templates.
func NewTemplates(capacity int) *Templates { return keyed.NewLRU[TemplateKey, Template](capacity) }

// Cache is the plan LRU: keyed.LRU, so a plan leaves only by LRU
// eviction. A nil *Cache always misses.
type Cache = keyed.LRU[Key, Entry]

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats = keyed.Stats

// New returns a cache holding up to capacity plans (clamped to >= 1).
func New(capacity int) *Cache { return keyed.NewLRU[Key, Entry](capacity) }
