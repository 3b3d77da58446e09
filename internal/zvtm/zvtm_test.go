package zvtm

import (
	"fmt"
	"math"
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
	before := append([]Glyph(nil), vs.Glyphs()...)
	vs.Shape(0).Color = "#ff0000"
	if got := vs.Shape(0).Color; got != "#ff0000" {
		t.Errorf("color = %q", got)
	}
	for k, g := range vs.Glyphs() {
		if k != 0 && g != before[k] {
			t.Errorf("glyph %d changed: %+v, was %+v", k, g, before[k])
		}
	}
}

func TestPickNode(t *testing.T) {
	vs := twoNodeSpace(t)
	shape := vs.Shape(1)
	i, ok := vs.PickNode(shape.CenterX(), shape.CenterY())
	if !ok || i != 1 {
		t.Errorf("pick = %d, %v", i, ok)
	}
	if _, ok := vs.PickNode(-1000, -1000); ok {
		t.Error("picked in empty space")
	}
}

func TestCameraProjectUnprojectInverse(t *testing.T) {
	cam := &Camera{CX: 50, CY: 80, Alt: 120}
	for _, pt := range [][2]float64{{0, 0}, {50, 80}, {-30, 200}, {999, -1}} {
		sx, sy := cam.Project(pt[0], pt[1], 800, 600)
		wx, wy := cam.Unproject(sx, sy, 800, 600)
		if math.Abs(wx-pt[0]) > 1e-9 || math.Abs(wy-pt[1]) > 1e-9 {
			t.Errorf("round trip (%g,%g) -> (%g,%g)", pt[0], pt[1], wx, wy)
		}
	}
}

func TestCameraZoomSemantics(t *testing.T) {
	cam := &Camera{}
	if cam.Zoom() != 1 {
		t.Errorf("zoom at alt 0 = %g", cam.Zoom())
	}
	cam.ZoomOut(0.5)
	if cam.Zoom() >= 1 {
		t.Error("zooming out did not reduce magnification")
	}
	z := cam.Zoom()
	cam.ZoomIn(0.5)
	if cam.Zoom() <= z {
		t.Error("zooming in did not increase magnification")
	}
	// Altitude may go negative (zoom > 1) but never reaches the
	// degenerate -focal limit.
	for i := 0; i < 500; i++ {
		cam.ZoomIn(0.9)
	}
	if cam.Zoom() <= 0 || math.IsInf(cam.Zoom(), 0) {
		t.Errorf("zoom degenerated to %g", cam.Zoom())
	}
}

func TestCameraVisibleBounds(t *testing.T) {
	cam := &Camera{CX: 100, CY: 100, Alt: 100} // zoom = 0.5
	x, y, w, h := cam.VisibleBounds(400, 300)
	if w != 800 || h != 600 {
		t.Errorf("visible size = %gx%g", w, h)
	}
	if x != -300 || y != -200 {
		t.Errorf("visible origin = (%g,%g)", x, y)
	}
}

func TestCenterOnGlyph(t *testing.T) {
	cam := &Camera{Alt: 500}
	g := &Glyph{Kind: ShapeGlyph, X: 100, Y: 200, W: 50, H: 20}
	cam.CenterOnGlyph(g, 800, 0.5)
	if cam.CX != 125 || cam.CY != 210 {
		t.Errorf("camera at (%g,%g)", cam.CX, cam.CY)
	}
	// Glyph should now project to half the viewport width: zoom = 8.
	if math.Abs(cam.Zoom()-8) > 1e-9 {
		t.Errorf("zoom = %g, want 8", cam.Zoom())
	}
}

func TestFisheyeLensProperties(t *testing.T) {
	l := &FisheyeLens{FX: 0, FY: 0, Radius: 100, Mag: 3}
	// Focus is a fixpoint.
	if x, y := l.Transform(0, 0); x != 0 || y != 0 {
		t.Errorf("focus moved to (%g,%g)", x, y)
	}
	// Points outside the radius are unchanged.
	if x, y := l.Transform(150, 0); x != 150 || y != 0 {
		t.Errorf("outside point moved to (%g,%g)", x, y)
	}
	// The boundary is continuous: g(1) = 1.
	if x, _ := l.Transform(100, 0); math.Abs(x-100) > 1e-9 {
		t.Errorf("boundary discontinuity: %g", x)
	}
	// Inside points are pushed outward, monotonically.
	prev := 0.0
	for d := 10.0; d < 100; d += 10 {
		x, _ := l.Transform(d, 0)
		if x <= d {
			t.Errorf("point at %g not magnified outward (%g)", d, x)
		}
		if x <= prev {
			t.Errorf("fisheye not monotonic at %g", d)
		}
		prev = x
	}
	// Center magnification matches Mag.
	if m := l.Magnification(0); math.Abs(m-3) > 1e-9 {
		t.Errorf("center magnification = %g", m)
	}
	if m := l.Magnification(200); m != 1 {
		t.Errorf("outside magnification = %g", m)
	}
}

func TestAnimatorReachesTargetExactly(t *testing.T) {
	cam := &Camera{CX: 0, CY: 0, Alt: 100}
	var a Animator
	a.AnimateCameraTo(cam, 100, 50, 0, 100)
	steps := 0
	for a.Tick(7) {
		steps++
		if steps > 1000 {
			t.Fatal("animation never ends")
		}
	}
	if cam.CX != 100 || cam.CY != 50 || cam.Alt != 0 {
		t.Errorf("final camera = (%g,%g,%g)", cam.CX, cam.CY, cam.Alt)
	}
}

func TestAnimatorQueuesSequentially(t *testing.T) {
	cam := &Camera{}
	var a Animator
	a.AnimateCameraTo(cam, 10, 0, 0, 50)
	a.AnimateCameraTo(cam, 20, 0, 0, 50)
	// Run the first to completion.
	a.Tick(50)
	if cam.CX != 10 {
		t.Errorf("after first animation CX = %g", cam.CX)
	}
	if !a.Active() {
		t.Fatal("second animation lost")
	}
	a.Tick(50)
	if cam.CX != 20 {
		t.Errorf("after second animation CX = %g", cam.CX)
	}
	if a.Active() {
		t.Error("animator still active")
	}
}

func TestAnimatorMidpointIsSmooth(t *testing.T) {
	cam := &Camera{}
	var a Animator
	a.AnimateCameraTo(cam, 100, 0, 0, 100)
	a.Tick(50)
	// smoothstep(0.5) = 0.5 exactly.
	if math.Abs(cam.CX-50) > 1e-9 {
		t.Errorf("midpoint CX = %g", cam.CX)
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
	// 150ms later: second dispatches.
	out = q.Flush(t0.Add(150 * time.Millisecond))
	if len(out) != 1 || out[0].Node != 1 {
		t.Fatalf("second flush = %+v", out)
	}
	// Inter-render delays never exceed the configured ceiling given a
	// saturated queue.
	for _, d := range q.InterRenderDelays() {
		if d > 150*time.Millisecond {
			t.Errorf("inter-render delay %v exceeds ceiling", d)
		}
	}
}

func TestRenderQueueCoalescesPerNode(t *testing.T) {
	vs := twoNodeSpace(t)
	q := NewRenderQueue(vs, 150*time.Millisecond)
	t0 := time.Unix(0, 0)
	q.Enqueue(0, "red", t0)
	q.Enqueue(0, "green", t0.Add(time.Millisecond))
	if q.PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1 (coalesced)", q.PendingLen())
	}
	out := q.Flush(t0.Add(time.Second))
	if len(out) != 1 || out[0].Color != "green" {
		t.Fatalf("dispatched = %+v", out)
	}
	if vs.Shape(0).Color != "green" {
		t.Error("latest color not applied")
	}
}

func TestRenderQueueDefaultDelay(t *testing.T) {
	q := NewRenderQueue(space(t, &svg.Doc{}), 0)
	if q.Delay() != DefaultDispatchDelay {
		t.Errorf("default delay = %v", q.Delay())
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
	if q.PendingLen() != 2 {
		t.Fatalf("pending = %d", q.PendingLen())
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
	vs := gridSpace(t, nodes, 1)
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
		if q.PendingLen() != len(model) {
			t.Fatalf("step %d: %d pending, model %d", step, q.PendingLen(), len(model))
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
	if q.PendingLen() != 0 {
		t.Fatalf("pending after drop = %d", q.PendingLen())
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
