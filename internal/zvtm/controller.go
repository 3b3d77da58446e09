package zvtm

// NavController maps input gestures to camera operations, reproducing
// ZGrviewer's "keyboard and mouse scroll based navigation with zooming
// ability on individual nodes and edges" (paper §3.1). It is a pure
// state machine over the camera — the terminal/headless front ends feed
// it decoded key and scroll events.

// Key identifies a navigation key.
type Key int

// Navigation keys.
const (
	KeyUp Key = iota
	KeyDown
	KeyLeft
	KeyRight
	KeyZoomIn  // '+'
	KeyZoomOut // '-'
	KeyHome    // reset to overview
)

// NavController drives a camera over a virtual space through key and
// scroll events.
type NavController struct {
	Cam   *Camera
	Space *VirtualSpace
	// ViewW and ViewH are the viewport dimensions used for projections.
	ViewW, ViewH float64
	// PanFraction is the pan step as a fraction of the visible extent
	// (default 0.15).
	PanFraction float64
	// ZoomFraction is the zoom step (default 0.2).
	ZoomFraction float64

	home Camera
}

// NewNavController positions the camera for an overview of the space
// (fit-to-view) and remembers it as home.
func NewNavController(vs *VirtualSpace, viewW, viewH float64) *NavController {
	cam := &Camera{}
	n := &NavController{
		Cam: cam, Space: vs, ViewW: viewW, ViewH: viewH,
		PanFraction: 0.15, ZoomFraction: 0.2,
	}
	n.FitToView()
	n.home = *cam
	return n
}

// FitToView centers the camera on the space and zooms so everything is
// visible.
func (n *NavController) FitToView() {
	if n.Space.W <= 0 || n.Space.H <= 0 {
		n.Cam.CX, n.Cam.CY, n.Cam.Alt = 0, 0, 0
		return
	}
	n.Cam.CenterOn(n.Space.W/2, n.Space.H/2)
	// Required zoom: view covers the full extent in both axes.
	zx := n.ViewW / n.Space.W
	zy := n.ViewH / n.Space.H
	z := zx
	if zy < z {
		z = zy
	}
	if z > 1 {
		z = 1 // don't magnify small graphs for the overview
	}
	n.Cam.Alt = focal/z - focal
}

// HandleKey applies one key press.
func (n *NavController) HandleKey(k Key) {
	_, _, visW, visH := n.Cam.VisibleBounds(n.ViewW, n.ViewH)
	switch k {
	case KeyUp:
		n.Cam.CY -= visH * n.PanFraction
	case KeyDown:
		n.Cam.CY += visH * n.PanFraction
	case KeyLeft:
		n.Cam.CX -= visW * n.PanFraction
	case KeyRight:
		n.Cam.CX += visW * n.PanFraction
	case KeyZoomIn:
		n.Cam.ZoomIn(n.ZoomFraction)
	case KeyZoomOut:
		n.Cam.ZoomOut(n.ZoomFraction)
	case KeyHome:
		*n.Cam = n.home
	}
}

// HandleScroll zooms by wheel clicks keeping the world point under the
// cursor fixed — ZVTM's scroll-to-zoom. sx, sy are viewport coordinates;
// positive clicks zoom in.
func (n *NavController) HandleScroll(sx, sy float64, clicks int) {
	if clicks == 0 {
		return
	}
	// The world point under the cursor before zooming...
	wx, wy := n.Cam.Unproject(sx, sy, n.ViewW, n.ViewH)
	steps := clicks
	if steps < 0 {
		steps = -steps
	}
	for i := 0; i < steps; i++ {
		if clicks > 0 {
			n.Cam.ZoomIn(n.ZoomFraction)
		} else {
			n.Cam.ZoomOut(n.ZoomFraction)
		}
	}
	// ...must stay under the cursor afterwards: solve for the camera
	// center that projects (wx, wy) back to (sx, sy).
	z := n.Cam.Zoom()
	n.Cam.CX = wx - (sx-n.ViewW/2)/z
	n.Cam.CY = wy - (sy-n.ViewH/2)/z
}

// HandleDrag pans by a viewport-space delta (mouse drag).
func (n *NavController) HandleDrag(dxPx, dyPx float64) {
	z := n.Cam.Zoom()
	if z == 0 {
		return
	}
	n.Cam.CX -= dxPx / z
	n.Cam.CY -= dyPx / z
}

// ClickNode picks the node under a viewport coordinate.
func (n *NavController) ClickNode(sx, sy float64) (int, bool) {
	wx, wy := n.Cam.Unproject(sx, sy, n.ViewW, n.ViewH)
	return n.Space.PickNode(wx, wy)
}

// ZoomToNode centers and magnifies node i — the demo's "zooming ability
// on individual nodes".
func (n *NavController) ZoomToNode(i int, frac float64) {
	n.Cam.CenterOnGlyph(n.Space.Shape(i), n.ViewW, frac)
}

// Visible returns the nodes whose shapes intersect the current view, for
// viewport-culled rendering of >1000-node graphs.
func (n *NavController) Visible() []int {
	x, y, w, h := n.Cam.VisibleBounds(n.ViewW, n.ViewH)
	var out []int
	for i := 0; i < n.Space.Nodes(); i++ {
		if g := n.Space.Shape(i); g.X < x+w && x < g.X+g.W && g.Y < y+h && y < g.Y+g.H {
			out = append(out, i)
		}
	}
	return out
}
