package zvtm

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// RenderView draws what the camera currently sees as a standalone SVG:
// glyphs are projected through the camera (and optionally distorted by a
// fisheye lens) into a viewport of the given pixel size, with
// out-of-view glyphs culled. This is the zoomable, lens-equipped view
// ZGrviewer presents (§3.1), produced headlessly.
func RenderView(w io.Writer, vs *VirtualSpace, cam *Camera, lens *FisheyeLens, viewW, viewH float64) error {
	if viewW <= 0 || viewH <= 0 {
		return fmt.Errorf("zvtm: viewport %gx%g", viewW, viewH)
	}
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		viewW, viewH, viewW, viewH)
	fmt.Fprintf(w, `<rect x="0" y="0" width="%.0f" height="%.0f" fill="#ffffff"/>`+"\n", viewW, viewH)

	// Project a world point through the optional lens then the camera.
	project := func(x, y float64) (float64, float64) {
		if lens != nil {
			x, y = lens.Transform(x, y)
		}
		return cam.Project(x, y, viewW, viewH)
	}
	inView := func(x1, y1, x2, y2 float64) bool {
		lo := func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		}
		hi := func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		}
		return lo(x1, x2) < viewW && hi(x1, x2) > 0 && lo(y1, y2) < viewH && hi(y1, y2) > 0
	}

	// Edges under nodes.
	fmt.Fprintln(w, `<g class="edges" stroke="#888888">`)
	for _, g := range vs.glyphs[2*vs.Nodes():] {
		x1, y1 := project(g.X, g.Y)
		x2, y2 := project(g.X2, g.Y2)
		if !inView(x1, y1, x2, y2) {
			continue
		}
		fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/>`+"\n", x1, y1, x2, y2)
	}
	fmt.Fprintln(w, "</g>")

	fmt.Fprintln(w, `<g class="nodes">`)
	z := cam.Zoom()
	for i, id := range vs.ids {
		shape, text := vs.Shape(i), &vs.glyphs[2*i+1]
		// Project the box corners; with a lens, the box is distorted, so
		// project the corners and use their bounding box.
		x1, y1 := project(shape.X, shape.Y)
		x2, y2 := project(shape.X+shape.W, shape.Y+shape.H)
		if !inView(x1, y1, x2, y2) {
			continue
		}
		fill := shape.Color
		if fill == "" {
			fill = "#f2f2f2"
		}
		fmt.Fprintf(w, `<g id="%s" class="node">`+"\n", escape(id))
		fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#333333"/>`+"\n",
			minF(x1, x2), minF(y1, y2), absF(x2-x1), absF(y2-y1), fill)
		// Labels only when legible (the original suppresses text at low
		// zoom, an LoD optimization that matters past 1000 nodes).
		fontPx := 11 * z
		if lens != nil {
			d := math.Hypot(shape.CenterX()-lens.FX, shape.CenterY()-lens.FY)
			fontPx *= lens.Magnification(d)
		}
		if text.Text != "" && fontPx >= 6 {
			cx, cy := project(shape.CenterX(), shape.CenterY())
			fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="%.1f" text-anchor="middle">%s</text>`+"\n",
				cx, cy+fontPx/3, fontPx, escape(text.Text))
		}
		fmt.Fprintln(w, "</g>")
	}
	fmt.Fprintln(w, "</g>")
	fmt.Fprintln(w, "</svg>")
	return nil
}

// RenderViewString is RenderView into a string.
func RenderViewString(vs *VirtualSpace, cam *Camera, lens *FisheyeLens, viewW, viewH float64) (string, error) {
	var b strings.Builder
	if err := RenderView(&b, vs, cam, lens, viewW, viewH); err != nil {
		return "", err
	}
	return b.String(), nil
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func absF(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
