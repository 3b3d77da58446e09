package zvtm

import (
	"strings"
	"testing"

	"stethoscope/internal/svg"
)

func TestRenderViewOverview(t *testing.T) {
	vs := gridSpace(t, 4, 3)
	n := NewNavController(vs, 800, 600)
	out, err := RenderViewString(vs, n.Cam, nil, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	// All 12 nodes visible in the overview.
	if got := strings.Count(out, `class="node"`); got != 12 {
		t.Errorf("rendered %d nodes, want 12", got)
	}
	if !strings.HasPrefix(out, "<svg") {
		t.Error("not an svg document")
	}
}

func TestRenderViewCullsOffscreen(t *testing.T) {
	vs := gridSpace(t, 10, 6)
	n := NewNavController(vs, 400, 300)
	n.ZoomToNode(0, 0.5)
	out, err := RenderViewString(vs, n.Cam, nil, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	rendered := strings.Count(out, `class="node"`)
	if rendered == 0 || rendered >= 60 {
		t.Errorf("culling rendered %d of 60", rendered)
	}
	if !strings.Contains(out, `id="`+nodeName(0, 0)+`"`) {
		t.Error("focused node missing from view")
	}
}

func TestRenderViewColorsAndLabels(t *testing.T) {
	vs := space(t, &svg.Doc{Width: 200, Height: 100, Nodes: []svg.NodeBox{
		{ID: "n0", X: 10, Y: 10, W: 100, H: 30, Fill: "#e03131", Label: `a < "b"`},
	}})
	cam := &Camera{CX: 100, CY: 50}
	out, err := RenderViewString(vs, cam, nil, 400, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `fill="#e03131"`) {
		t.Error("state color not rendered")
	}
	if !strings.Contains(out, "a &lt; &quot;b&quot;") {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestRenderViewLabelLoD(t *testing.T) {
	// At very low zoom the labels are suppressed.
	vs := gridSpace(t, 10, 6)
	legible, err := RenderViewString(vs, &Camera{CX: 500, CY: 180}, nil, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(legible, "<text") {
		t.Error("labels missing at zoom 1")
	}
	cam := &Camera{CX: 500, CY: 180, Alt: 5000} // zoom ~0.02
	out, err := RenderViewString(vs, cam, nil, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "<text") {
		t.Error("labels rendered at illegible zoom")
	}
}

func TestRenderViewWithFisheye(t *testing.T) {
	vs := gridSpace(t, 6, 4)
	n := NewNavController(vs, 800, 600)
	g := vs.Shape(1*6 + 1)
	lens := &FisheyeLens{FX: g.CenterX(), FY: g.CenterY(), Radius: 200, Mag: 3}
	plain, err := RenderViewString(vs, n.Cam, nil, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	lensed, err := RenderViewString(vs, n.Cam, lens, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	if plain == lensed {
		t.Error("fisheye lens had no effect on the rendering")
	}
}

func TestRenderViewBadViewport(t *testing.T) {
	vs := space(t, &svg.Doc{})
	if _, err := RenderViewString(vs, &Camera{}, nil, 0, 100); err == nil {
		t.Error("zero-width viewport accepted")
	}
}
