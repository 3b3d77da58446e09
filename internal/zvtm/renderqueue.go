package zvtm

import (
	"sync"
	"time"
)

// RenderRequest is one queued node recoloring.
type RenderRequest struct {
	Node       int
	Color      string
	EnqueuedAt time.Time
}

// Dispatched records when a request was actually rendered.
type Dispatched struct {
	RenderRequest
	DispatchedAt time.Time
}

// RenderQueue emulates the Java Event Dispatch Thread queuing that the
// original Stethoscope must work around: "Coloring graph nodes in an
// online stream is a complex task due to rendering limitations from the
// Java system. The Stethoscope uses the Java Event Dispatch thread
// queuing framework for queuing up nodes to render. This introduces a
// delay of up-to 150ms between rendering of consecutive nodes." (§4.2.1)
//
// Requests are applied to the virtual space at most one per Delay
// interval; coalescing keeps only the newest color per node while it
// waits. The queue's existence is why the online coloring algorithm must
// elide short-lived start/done pairs (experiment E6).
type RenderQueue struct {
	mu    sync.Mutex
	vs    *VirtualSpace
	delay time.Duration
	// pending[head:] wait in order of first enqueue; at[i] is node i's
	// position in pending plus one, 0 while node i waits for nothing.
	pending   []RenderRequest
	head      int
	at        []int32
	lastFlush time.Time
	history   []Dispatched
}

// DefaultDispatchDelay is the paper's 150 ms ceiling.
const DefaultDispatchDelay = 150 * time.Millisecond

// NewRenderQueue wraps a virtual space. delay <= 0 selects the paper's
// 150 ms.
func NewRenderQueue(vs *VirtualSpace, delay time.Duration) *RenderQueue {
	if delay <= 0 {
		delay = DefaultDispatchDelay
	}
	return &RenderQueue{vs: vs, delay: delay, at: make([]int32, vs.Nodes())}
}

// Delay returns the configured per-dispatch latency.
func (q *RenderQueue) Delay() time.Duration { return q.delay }

// Enqueue schedules a recoloring of node i at time now. A pending
// request for the same node is overwritten (the EDT coalesces repaint
// events).
func (q *RenderQueue) Enqueue(i int, color string, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if k := q.at[i]; k > 0 {
		q.pending[k-1].Color = color
		q.pending[k-1].EnqueuedAt = now
		return
	}
	q.pending = append(q.pending, RenderRequest{Node: i, Color: color, EnqueuedAt: now})
	q.at[i] = int32(len(q.pending))
}

// Drop discards every pending request — a replay that jumps repaints the
// whole space itself, and a queued recoloring would undo the jump.
func (q *RenderQueue) Drop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range q.pending[q.head:] {
		q.at[r.Node] = 0
	}
	q.pending, q.head = q.pending[:0], 0
}

// Flush dispatches every request whose turn has come by `now`: one
// request per delay interval since the previous dispatch. It returns the
// requests rendered by this call.
func (q *RenderQueue) Flush(now time.Time) []Dispatched {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Dispatched
	for q.head < len(q.pending) {
		req := q.pending[q.head]
		next := q.lastFlush.Add(q.delay)
		if q.lastFlush.IsZero() || next.Before(req.EnqueuedAt) {
			next = req.EnqueuedAt
		}
		if next.After(now) {
			break
		}
		q.head++
		q.at[req.Node] = 0
		q.vs.Shape(req.Node).Color = req.Color
		d := Dispatched{RenderRequest: req, DispatchedAt: next}
		q.history = append(q.history, d)
		out = append(out, d)
		q.lastFlush = next
	}
	// Once half the slice is dispatched, move the waiting half down: each
	// move costs at most the dispatches since the last one.
	if q.head > 0 && 2*q.head >= len(q.pending) {
		q.pending = q.pending[:copy(q.pending, q.pending[q.head:])]
		q.head = 0
		for k, r := range q.pending {
			q.at[r.Node] = int32(k + 1)
		}
	}
	return out
}

// PendingLen reports how many requests wait for dispatch.
func (q *RenderQueue) PendingLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) - q.head
}

// History returns all dispatches so far.
func (q *RenderQueue) History() []Dispatched {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]Dispatched(nil), q.history...)
}

// InterRenderDelays returns the gaps between consecutive dispatches,
// the quantity the paper bounds at 150 ms (experiment E6).
func (q *RenderQueue) InterRenderDelays() []time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []time.Duration
	for i := 1; i < len(q.history); i++ {
		out = append(out, q.history[i].DispatchedAt.Sub(q.history[i-1].DispatchedAt))
	}
	return out
}
