// Package keyed is the serving layer's keyed-reuse substrate: the one
// LRU and the one single-flight behind every place a statement's work
// is reused. internal/plancache (compiled plans), the planner's compile
// flight and the shared-work run flight (internal/sharedwork) are
// instantiations of the two types here, so eviction order, the
// leader/follower protocol and the effectiveness counters exist exactly
// once.
//
// Both types are safe for concurrent use. A nil *LRU always misses and
// a nil *Flight runs every call solo, so an optional cache or flight
// needs no branch at its call sites.
package keyed

import (
	"container/list"
	"context"
	"sync"

	"stethoscope/internal/metrics"
)

// Stats is a point-in-time snapshot of an LRU's effectiveness.
type Stats struct {
	Hits      int64 // Get calls that found an entry
	Misses    int64 // Get calls that did not
	Evictions int64 // entries displaced by capacity pressure
	Len       int   // entries currently held
	Capacity  int   // maximum entries
}

// HitRate returns hits / (hits + misses), 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a fixed-capacity least-recently-used cache: an entry leaves
// only when capacity pressure evicts it or a Put of its key replaces it.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *slot[K, V]
	byKey    map[K]*list.Element

	// Standalone cells by default; Instrument swaps in registry-owned
	// ones so Stats and the exposition endpoint read the same numbers.
	hits, misses, evictions *metrics.Counter
}

type slot[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns a cache holding up to capacity entries. Capacity < 1
// clamps to 1.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity:  capacity,
		order:     list.New(),
		byKey:     make(map[K]*list.Element, capacity),
		hits:      &metrics.Counter{},
		misses:    &metrics.Counter{},
		evictions: &metrics.Counter{},
	}
}

// Instrument re-homes the counters into the registry as
// <prefix>_{hits,misses,evictions}_total and registers the
// <prefix>_entries and <prefix>_capacity gauges. Call before serving:
// counts recorded earlier stay in the old cells.
func (c *LRU[K, V]) Instrument(reg *metrics.Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	c.mu.Lock()
	c.hits = reg.Counter(prefix + "_hits_total")
	c.misses = reg.Counter(prefix + "_misses_total")
	c.evictions = reg.Counter(prefix + "_evictions_total")
	c.mu.Unlock()
	reg.GaugeFunc(prefix+"_entries", func() int64 { return int64(c.Len()) })
	reg.GaugeFunc(prefix+"_capacity", func() int64 { return int64(c.capacity) })
}

// Get returns the value for the key, promoting it to most recently used
// on a hit.
func (c *LRU[K, V]) Get(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses.Inc()
		return v, false
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*slot[K, V]).val, true
}

// Peek is Get without the side effects: no counter moves and the entry
// is not promoted. It is for a caller re-checking after a Get it already
// had counted as a miss.
func (c *LRU[K, V]) Peek(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.byKey[k]; found {
		return el.Value.(*slot[K, V]).val, true
	}
	return v, false
}

// Put inserts or refreshes the value, evicting the least recently used
// entry when the cache is full.
func (c *LRU[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*slot[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&slot[K, V]{key: k, val: v})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*slot[K, V]).key)
		c.evictions.Inc()
	}
}

// Len reports the number of entries held.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *LRU[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       c.order.Len(),
		Capacity:  c.capacity,
	}
}

// Keys returns the held keys from most to least recently used
// (diagnostics and tests). A nil cache holds none.
func (c *LRU[K, V]) Keys() []K {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*slot[K, V]).key)
	}
	return out
}

// call is one in-flight piece of work in a Flight.
type call[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int // followers attached; read by the leader after removal
}

// Flight is a single-flight registry: concurrent calls for one key run
// the work once. It holds only in-flight work, so it dedupes
// concurrency and never caches.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]

	// led counts calls that ran the work, attached counts calls served
	// by waiting on a leader. Standalone cells until Instrument.
	led, attached *metrics.Counter
}

// NewFlight returns an empty registry.
func NewFlight[K comparable, V any]() *Flight[K, V] {
	return &Flight[K, V]{
		calls:    map[K]*call[V]{},
		led:      &metrics.Counter{},
		attached: &metrics.Counter{},
	}
}

// Instrument re-homes the counters into the registry as
// <prefix>_led_total and <prefix>_attached_total and registers the
// <prefix>_inflight gauge. Call before serving; counts recorded earlier
// stay in the old cells.
func (f *Flight[K, V]) Instrument(reg *metrics.Registry, prefix string) {
	if f == nil || reg == nil {
		return
	}
	f.mu.Lock()
	f.led = reg.Counter(prefix + "_led_total")
	f.attached = reg.Counter(prefix + "_attached_total")
	f.mu.Unlock()
	reg.GaugeFunc(prefix+"_inflight", func() int64 { return int64(f.InFlight()) })
}

// Do runs the work under single-flight semantics for key. The first
// caller for a key becomes the leader: it runs the function inline and
// its outcome is handed to every follower that arrived while it ran.
// Followers block until the leader finishes or their own ctx is done
// (pass context.Background() for work with no cancellation point) and
// report attached=true; a follower never observes a partially written
// outcome. waiters reports, on the leader path only, how many followers
// attached — a leader with waiters > 0 must treat its outcome as
// shared.
//
// The registry entry is removed before the leader's outcome is
// published, so a caller arriving after completion always leads a
// fresh run.
//
// Leader errors propagate to followers as-is. The Flight cannot tell a
// leader's cancellation from a follower's, so whether a follower of a
// canceled leader re-runs solo is the caller's policy.
func (f *Flight[K, V]) Do(ctx context.Context, key K, run func() (V, error)) (v V, err error, attached bool, waiters int) {
	if f == nil {
		v, err = run()
		return v, err, false, 0
	}
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		c.waiters++
		f.attached.Inc()
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true, 0
		case <-ctx.Done():
			return v, ctx.Err(), true, 0
		}
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.led.Inc()
	f.mu.Unlock()

	c.val, c.err = run()

	f.mu.Lock()
	delete(f.calls, key)
	waiters = c.waiters
	f.mu.Unlock()
	close(c.done)
	return c.val, c.err, false, waiters
}

// InFlight reports the number of distinct keys currently running.
func (f *Flight[K, V]) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// Led and Attached expose the counters (tests and Stats).
func (f *Flight[K, V]) Led() int64      { return f.led.Load() }
func (f *Flight[K, V]) Attached() int64 { return f.attached.Load() }
