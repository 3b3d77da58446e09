package zvtm

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
	"stethoscope/internal/svg"
)

// twoNodeSpace reproduces the paper's worked example: a two-node graph
// with one edge.
func twoNodeSpace(t testing.TB) *VirtualSpace {
	t.Helper()
	g, err := dot.Parse("digraph pair { n0 [label=first]; n1 [label=second]; n0 -> n1; }")
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := svg.RenderString(g, lay, nil, svg.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := svg.ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := FromSVG("pair", doc)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// gridSpace lays n nodes out in one row.
func gridSpace(t testing.TB, n int) *VirtualSpace {
	t.Helper()
	doc := &svg.Doc{Width: float64(n * 100), Height: 60}
	for c := 0; c < n; c++ {
		doc.Nodes = append(doc.Nodes, svg.NodeBox{X: float64(c*100 + 10), Y: 10, W: 80, H: 40})
	}
	vs, err := FromSVG("grid", doc)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// pending counts the requests waiting for dispatch.
func pending(q *RenderQueue) int { return len(q.pending) - q.head }

func TestPaperGlyphAccounting(t *testing.T) {
	// "ZGrviewer maintains following objects, shape (two objects), text
	// (two objects), and edge (one object)." — §3.1
	vs := twoNodeSpace(t)
	if got := vs.CountKind(ShapeGlyph); got != 2 {
		t.Errorf("shape glyphs = %d, want 2", got)
	}
	if got := vs.CountKind(TextGlyph); got != 2 {
		t.Errorf("text glyphs = %d, want 2", got)
	}
	if got := vs.CountKind(EdgeGlyph); got != 1 {
		t.Errorf("edge glyphs = %d, want 1", got)
	}
}

// A node's shape starts with the document's fill, and coloring it
// touches that node's shape and nothing else.
func TestNodeColorRoundTrip(t *testing.T) {
	vs := twoNodeSpace(t)
	fill := svg.DefaultStyle().NodeFill
	if got := vs.Shape(0).Color; got != fill {
		t.Errorf("initial color = %q, want the document's %q", got, fill)
	}
	before := append([]Glyph(nil), vs.glyphs...)
	vs.Shape(0).Color = "#ff0000"
	if got := vs.Shape(0).Color; got != "#ff0000" {
		t.Errorf("color = %q", got)
	}
	for k, g := range vs.glyphs {
		if k != 0 && g != before[k] {
			t.Errorf("glyph %d changed: %+v, was %+v", k, g, before[k])
		}
	}
}

func TestRenderQueueDispatchPacing(t *testing.T) {
	vs := twoNodeSpace(t)
	q := NewRenderQueue(vs, 150*time.Millisecond)
	t0 := time.Unix(0, 0)
	q.Enqueue(0, "red", t0)
	q.Enqueue(1, "red", t0)

	// At t0, only the first dispatches.
	out := q.Flush(t0)
	if len(out) != 1 || out[0].Node != 0 {
		t.Fatalf("first flush = %+v", out)
	}
	if vs.Shape(0).Color != "red" {
		t.Error("color not applied")
	}
	if vs.Shape(1).Color == "red" {
		t.Error("second applied too early")
	}
	// 149ms later: still waiting.
	if out := q.Flush(t0.Add(149 * time.Millisecond)); len(out) != 0 {
		t.Fatalf("early flush dispatched %d", len(out))
	}
	// 150ms later: second dispatches, one full delay after the first.
	second := q.Flush(t0.Add(150 * time.Millisecond))
	if len(second) != 1 || second[0].Node != 1 {
		t.Fatalf("second flush = %+v", second)
	}
	if d := second[0].DispatchedAt.Sub(out[0].DispatchedAt); d != 150*time.Millisecond {
		t.Errorf("inter-render delay %v, want the 150ms ceiling", d)
	}
}

func TestRenderQueueCoalescesPerNode(t *testing.T) {
	vs := twoNodeSpace(t)
	q := NewRenderQueue(vs, 150*time.Millisecond)
	t0 := time.Unix(0, 0)
	q.Enqueue(0, "red", t0)
	q.Enqueue(0, "green", t0.Add(time.Millisecond))
	if pending(q) != 1 {
		t.Fatalf("pending = %d, want 1 (coalesced)", pending(q))
	}
	out := q.Flush(t0.Add(time.Second))
	if len(out) != 1 || out[0].Color != "green" {
		t.Fatalf("dispatched = %+v", out)
	}
	if vs.Shape(0).Color != "green" {
		t.Error("latest color not applied")
	}
}

// A zero delay selects the paper's 150 ms between dispatches.
func TestRenderQueueDefaultDelay(t *testing.T) {
	q := NewRenderQueue(twoNodeSpace(t), 0)
	t0 := time.Unix(0, 0)
	q.Enqueue(0, "red", t0)
	q.Enqueue(1, "red", t0)
	if out := q.Flush(t0.Add(DefaultDispatchDelay - time.Nanosecond)); len(out) != 1 {
		t.Fatalf("dispatched %d before the default delay, want 1", len(out))
	}
	if out := q.Flush(t0.Add(DefaultDispatchDelay)); len(out) != 1 {
		t.Fatalf("dispatched %d at the default delay, want 1", len(out))
	}
}

func TestRenderQueueBurstThroughput(t *testing.T) {
	vs := twoNodeSpace(t)
	q := NewRenderQueue(vs, 10*time.Millisecond)
	t0 := time.Unix(100, 0)
	// Alternate colors on two nodes rapidly; coalescing bounds pending at 2.
	for i := 0; i < 100; i++ {
		q.Enqueue(0, "red", t0.Add(time.Duration(i)*time.Millisecond))
		q.Enqueue(1, "green", t0.Add(time.Duration(i)*time.Millisecond))
	}
	if pending(q) != 2 {
		t.Fatalf("pending = %d", pending(q))
	}
	out := q.Flush(t0.Add(time.Second))
	if len(out) != 2 {
		t.Fatalf("dispatched = %d", len(out))
	}
}

// TestRenderQueueMatchesModel holds the queue, through partial flushes
// and re-enqueues of nodes already dispatched, to the obvious model: a
// list in order of first enqueue holding each waiting node's newest
// color and time, dispatched from the front one per delay.
func TestRenderQueueMatchesModel(t *testing.T) {
	const nodes = 40
	vs := gridSpace(t, nodes)
	q := NewRenderQueue(vs, time.Millisecond)
	var model []RenderRequest
	var last time.Time
	now := time.Unix(0, 0)
	state := uint64(7)
	for step := 0; step < 3000; step++ {
		state = state*6364136223846793005 + 1442695040888963407
		r := int(state >> 33)
		now = now.Add(time.Duration(r%700) * time.Microsecond)
		if r%5 == 0 {
			got := q.Flush(now)
			var want []Dispatched
			for len(model) > 0 {
				next := last.Add(time.Millisecond)
				if last.IsZero() || next.Before(model[0].EnqueuedAt) {
					next = model[0].EnqueuedAt
				}
				if next.After(now) {
					break
				}
				want = append(want, Dispatched{RenderRequest: model[0], DispatchedAt: next})
				model, last = model[1:], next
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: dispatched %d, model %d", step, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] || vs.Shape(got[k].Node).Color == "" {
					t.Fatalf("step %d: dispatch %d is %+v, model %+v", step, k, got[k], want[k])
				}
			}
			continue
		}
		node, color := r%nodes, fmt.Sprintf("#%06x", step)
		q.Enqueue(node, color, now)
		k := slices.IndexFunc(model, func(m RenderRequest) bool { return m.Node == node })
		if k < 0 {
			model = append(model, RenderRequest{Node: node})
			k = len(model) - 1
		}
		model[k].Color, model[k].EnqueuedAt = color, now
		if pending(q) != len(model) {
			t.Fatalf("step %d: %d pending, model %d", step, pending(q), len(model))
		}
	}
}

// TestRenderQueueDropDiscardsPending: after Drop nothing waits, and a
// later enqueue of a node that was waiting starts afresh.
func TestRenderQueueDropDiscardsPending(t *testing.T) {
	vs := twoNodeSpace(t)
	q := NewRenderQueue(vs, 150*time.Millisecond)
	t0 := time.Unix(0, 0)
	q.Enqueue(0, "red", t0)
	q.Enqueue(1, "red", t0)
	q.Drop()
	if pending(q) != 0 {
		t.Fatalf("pending after drop = %d", pending(q))
	}
	q.Enqueue(1, "green", t0)
	out := q.Flush(t0.Add(time.Minute))
	if len(out) != 1 || out[0].Node != 1 || out[0].Color != "green" {
		t.Fatalf("dispatched = %+v", out)
	}
	if c := vs.Shape(0).Color; c == "red" {
		t.Error("a dropped request was painted")
	}
}
