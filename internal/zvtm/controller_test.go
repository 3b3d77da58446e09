package zvtm

import (
	"math"
	"testing"

	"stethoscope/internal/svg"
)

// gridSpace lays rows × cols labelled nodes out on a grid, row by row:
// node r*cols+c is named nodeName(r, c).
func gridSpace(t testing.TB, cols, rows int) *VirtualSpace {
	t.Helper()
	doc := &svg.Doc{Width: float64(cols * 100), Height: float64(rows * 60)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			doc.Nodes = append(doc.Nodes, svg.NodeBox{
				ID: nodeName(r, c), Label: nodeName(r, c),
				X: float64(c*100 + 10), Y: float64(r*60 + 10), W: 80, H: 40,
			})
		}
	}
	return space(t, doc)
}

// space builds the glyph space of a document.
func space(t testing.TB, doc *svg.Doc) *VirtualSpace {
	t.Helper()
	vs, err := FromSVG("test", doc)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func nodeName(r, c int) string {
	return "n" + string(rune('a'+r)) + string(rune('a'+c))
}

func TestFitToViewShowsEverything(t *testing.T) {
	vs := gridSpace(t, 10, 6) // 1000 x 360 world
	n := NewNavController(vs, 500, 300)
	x, y, w, h := n.Cam.VisibleBounds(n.ViewW, n.ViewH)
	if x > 0 || y > 0 || x+w < vs.W || y+h < vs.H {
		t.Errorf("overview (%g,%g,%g,%g) does not cover %gx%g", x, y, w, h, vs.W, vs.H)
	}
	if len(n.Visible()) != 60 {
		t.Errorf("visible = %d, want all 60", len(n.Visible()))
	}
}

func TestFitToViewDoesNotMagnifyTinySpaces(t *testing.T) {
	vs := gridSpace(t, 1, 1)
	n := NewNavController(vs, 1000, 1000)
	if n.Cam.Zoom() > 1+1e-9 {
		t.Errorf("overview zoom = %g, want <= 1", n.Cam.Zoom())
	}
}

func TestKeyPanAndHome(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	cx, cy := n.Cam.CX, n.Cam.CY
	n.HandleKey(KeyRight)
	if n.Cam.CX <= cx {
		t.Error("right pan did not move camera right")
	}
	n.HandleKey(KeyDown)
	if n.Cam.CY <= cy {
		t.Error("down pan did not move camera down")
	}
	n.HandleKey(KeyHome)
	if n.Cam.CX != cx || n.Cam.CY != cy {
		t.Error("home did not restore the overview")
	}
}

func TestKeyZoomChangesVisibleSet(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	before := len(n.Visible())
	for i := 0; i < 12; i++ {
		n.HandleKey(KeyZoomIn)
	}
	after := len(n.Visible())
	if after >= before {
		t.Errorf("zooming in kept %d of %d nodes visible", after, before)
	}
	for i := 0; i < 20; i++ {
		n.HandleKey(KeyZoomOut)
	}
	if got := len(n.Visible()); got != 60 {
		t.Errorf("zoomed out visible = %d", got)
	}
}

func TestScrollZoomKeepsCursorPointFixed(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	sx, sy := 400.0, 100.0 // arbitrary cursor position
	wxBefore, wyBefore := n.Cam.Unproject(sx, sy, n.ViewW, n.ViewH)
	n.HandleScroll(sx, sy, 3)
	wxAfter, wyAfter := n.Cam.Unproject(sx, sy, n.ViewW, n.ViewH)
	if math.Abs(wxAfter-wxBefore) > 1e-6 || math.Abs(wyAfter-wyBefore) > 1e-6 {
		t.Errorf("cursor anchor moved: (%g,%g) -> (%g,%g)", wxBefore, wyBefore, wxAfter, wyAfter)
	}
	if n.Cam.Zoom() <= 0.5 {
		t.Errorf("zoom after 3 clicks = %g", n.Cam.Zoom())
	}
	// Scrolling out anchors too.
	n.HandleScroll(sx, sy, -2)
	wx2, wy2 := n.Cam.Unproject(sx, sy, n.ViewW, n.ViewH)
	if math.Abs(wx2-wxBefore) > 1e-6 || math.Abs(wy2-wyBefore) > 1e-6 {
		t.Error("cursor anchor moved on zoom out")
	}
	n.HandleScroll(sx, sy, 0) // no-op
}

func TestDragPansInWorldUnits(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	z := n.Cam.Zoom()
	cx := n.Cam.CX
	n.HandleDrag(50, 0) // drag content right: camera moves left
	want := cx - 50/z
	if math.Abs(n.Cam.CX-want) > 1e-9 {
		t.Errorf("CX = %g, want %g", n.Cam.CX, want)
	}
}

func TestClickNode(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	// Project the center of node (0,0) into the viewport and click it.
	g := vs.Shape(0)
	sx, sy := n.Cam.Project(g.CenterX(), g.CenterY(), n.ViewW, n.ViewH)
	i, ok := n.ClickNode(sx, sy)
	if !ok || i != 0 {
		t.Errorf("click = %d, %v", i, ok)
	}
	if _, ok := n.ClickNode(-10000, -10000); ok {
		t.Error("click in the void hit a node")
	}
}

func TestZoomToNode(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	n.ZoomToNode(2*10+3, 0.5)
	g := vs.Shape(2*10 + 3)
	if n.Cam.CX != g.CenterX() || n.Cam.CY != g.CenterY() {
		t.Error("camera not centered on node")
	}
	// The node now spans half the viewport width.
	sx1, _ := n.Cam.Project(g.X, g.Y, n.ViewW, n.ViewH)
	sx2, _ := n.Cam.Project(g.X+g.W, g.Y, n.ViewW, n.ViewH)
	if math.Abs((sx2-sx1)-250) > 1e-6 {
		t.Errorf("node spans %g px, want 250", sx2-sx1)
	}
}

func TestVisibleCulling(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 500, 300)
	n.ZoomToNode(0, 0.8)
	vis := n.Visible()
	if len(vis) == 0 || len(vis) >= 60 {
		t.Errorf("culled visible = %d", len(vis))
	}
	found := false
	for _, i := range vis {
		if i == 0 {
			found = true
		}
	}
	if !found {
		t.Error("focused node not visible")
	}
}
