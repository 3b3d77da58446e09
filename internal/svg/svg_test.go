package svg

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
)

// mustParse reads a test graph from dot text.
func mustParse(t testing.TB, text string) *dot.Graph {
	t.Helper()
	g, err := dot.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func renderSample(t testing.TB, fills map[string]string) (string, *dot.Graph, *layout.Layout) {
	t.Helper()
	g := mustParse(t, `digraph sample { n0 [label="X_0 := sql.bind();"]; n1 [label="X_1 := algebra.select(X_0);"]; n0 -> n1; }`)
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderString(g, lay, fills, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	return out, g, lay
}

func TestRenderContainsNodesAndEdges(t *testing.T) {
	out, _, _ := renderSample(t, nil)
	for _, want := range []string{`id="n0"`, `id="n1"`, "<line", "<rect", "<text"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if !strings.HasPrefix(out, "<svg") {
		t.Error("not an svg document")
	}
}

func TestRenderFillOverride(t *testing.T) {
	out, _, _ := renderSample(t, map[string]string{"n0": "#ff0000"})
	if !strings.Contains(out, `fill="#ff0000"`) {
		t.Error("fill override not applied")
	}
}

func TestParseRoundTrip(t *testing.T) {
	out, g, lay := renderSample(t, map[string]string{"n1": "#00ff00"})
	doc, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != len(g.Nodes) {
		t.Fatalf("parsed %d nodes, want %d", len(doc.Nodes), len(g.Nodes))
	}
	if len(doc.Edges) != len(g.Edges) {
		t.Fatalf("parsed %d edges, want %d", len(doc.Edges), len(g.Edges))
	}
	n1 := doc.Nodes["n1"]
	if n1 == nil {
		t.Fatal("n1 missing")
	}
	if n1.Fill != "#00ff00" {
		t.Errorf("n1 fill = %q", n1.Fill)
	}
	// Geometry survives within the 8px padding offset.
	want := lay.Positions["n1"]
	if n1.W != want.W || n1.H != want.H {
		t.Errorf("n1 box = %gx%g, want %gx%g", n1.W, n1.H, want.W, want.H)
	}
	if n1.X != want.X+8 || n1.Y != want.Y+8 {
		t.Errorf("n1 at (%g,%g), want (%g,%g)", n1.X, n1.Y, want.X+8, want.Y+8)
	}
	if n1.Label == "" {
		t.Error("n1 label lost")
	}
}

func TestLabelEscaping(t *testing.T) {
	g := mustParse(t, `digraph esc { n0 [label="a < b & \"c\""]; }`)
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderString(g, lay, nil, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(out)
	if err != nil {
		t.Fatalf("escaped svg unparseable: %v", err)
	}
	if !strings.Contains(doc.Nodes["n0"].Label, "<") {
		t.Errorf("label = %q", doc.Nodes["n0"].Label)
	}
}

func TestTruncateLongLabels(t *testing.T) {
	long := strings.Repeat("abcdefgh", 50)
	g := mustParse(t, "digraph long { n0 [label="+long+"]; }")
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderString(g, lay, nil, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes["n0"].Label) >= len(long) {
		t.Error("long label not truncated")
	}
	if !strings.HasSuffix(doc.Nodes["n0"].Label, "…") {
		t.Errorf("truncation marker missing: %q", doc.Nodes["n0"].Label)
	}
}

func TestRenderErrorOnMissingLayout(t *testing.T) {
	g := mustParse(t, "digraph bad { n0; }")
	empty := &layout.Layout{Positions: map[string]layout.Rect{}}
	if _, err := RenderString(g, empty, nil, DefaultStyle()); err == nil {
		t.Error("missing layout accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseString("<svg><unclosed"); err == nil {
		t.Error("malformed xml accepted")
	}
}

func TestEmptyGraphRenders(t *testing.T) {
	g := mustParse(t, "digraph empty {}")
	lay, _ := layout.Compute(g, layout.DefaultOptions())
	out, err := RenderString(g, lay, nil, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 0 || len(doc.Edges) != 0 {
		t.Error("phantom content in empty render")
	}
}

// A label whose cut falls inside a multi-byte character used to be sliced
// by bytes: the text carried invalid UTF-8 and the picture showed U+FFFD.
func TestTruncateLabelCutsBetweenCharacters(t *testing.T) {
	for w := 40.0; w < 120; w++ { // every cut position across the two-byte characters
		got := truncateLabel("select 'Ünïcödé strïng lïtéräl' from t", w, 11)
		if !utf8.ValidString(got) {
			t.Fatalf("width %g: %q is not valid UTF-8", w, got)
		}
	}
	// ASCII is cut where it always was: maxChars-1 bytes and the marker.
	if got, want := truncateLabel("abcdefghijklmnop", 6.82*8, 11), "abcdefg…"; got != want {
		t.Errorf("ascii label = %q, want %q", got, want)
	}
	// A label of exactly maxChars characters fits, however many bytes it is.
	if got := truncateLabel("ÜÜÜÜÜÜÜÜ", 6.82*8, 11); got != "ÜÜÜÜÜÜÜÜ" {
		t.Errorf("eight-character label = %q, want it whole", got)
	}

	g := mustParse(t, `digraph utf8 { n0 [label="`+strings.Repeat("é", 200)+`"]; }`)
	lay, err := layout.Compute(g, layout.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderString(g, lay, nil, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsRune(out, utf8.RuneError) {
		t.Error("rendered label carries a replacement character")
	}
}

// Damaged geometry used to open as a silently wrong picture: num took a
// numeric prefix ("12abc" was 12) and ignored what it could not scan
// ("oops" was 0).
func TestParseRejectsDamagedNumbers(t *testing.T) {
	const head = `<svg xmlns="http://www.w3.org/2000/svg" `
	for _, tc := range []struct{ name, doc, element, attr string }{
		{"prefix", head + `width="12abc" height="5"></svg>`, "<svg>", "width"},
		{"word", head + `width="10" height="5"><g id="n0" class="node"><rect x="oops" y="1" width="2" height="3"/></g></svg>`, "<rect>", "x"},
		{"empty", head + `width="10" height="5"><line x1="1" y1="" x2="3" y2="4"/></svg>`, "<line>", "y1"},
		{"not finite", head + `width="10" height="NaN"></svg>`, "<svg>", "height"},
	} {
		_, err := ParseString(tc.doc)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.element) || !strings.Contains(err.Error(), tc.attr+"=") {
			t.Errorf("%s: error %q does not name %s %s", tc.name, err, tc.element, tc.attr)
		}
	}
	// Absent attributes are optional and read as 0; a rect outside a node
	// group (the background) is not geometry.
	doc, err := ParseString(head + `width="10"><rect x="oops"/><g id="n0" class="node"><rect width="2" height=" 3 "/></g></svg>`)
	if err != nil {
		t.Fatal(err)
	}
	if n := doc.Nodes["n0"]; doc.Height != 0 || n == nil || n.X != 0 || n.W != 2 || n.H != 3 {
		t.Errorf("doc = %+v, n0 = %+v", doc, n)
	}
}

// roundFixed and appendTenths are the text form's %.0f and %.1f: same
// digits as strconv for every value a layout can produce, ties on the
// exact binary value included.
func TestFixedPointMatchesStrconv(t *testing.T) {
	values := []float64{0, 0.04, 0.05, 0.06, 0.15, 0.25, 0.35, 0.45, 0.5, 1.5, 2.5, 0.95, 9.95, 99.95,
		8 + 11.0/3, 1e6 + 0.05, 123456789.25, 1e13 + 0.75, 99999999999999.4, math.Nextafter(1e14, 0), 3.0000000000000004}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 50000; i++ {
		switch i % 5 {
		case 0:
			values = append(values, r.Float64()*5000)
		case 4: // up to the bound, where tenths are the last bits
			values = append(values, r.Float64()*1e14)
		case 1: // halves of a tenth: the ties, where they are exact
			values = append(values, float64(r.Intn(1<<20))/20)
		case 2:
			values = append(values, math.Float64frombits(r.Uint64()>>2)) // any magnitude below 2
		default:
			values = append(values, float64(r.Intn(4000))*7/2+float64(r.Intn(64))/64)
		}
	}
	for _, abs := range values {
		for _, v := range []float64{abs, -abs} {
			n, ok := roundFixed(v, 10)
			if !ok {
				t.Fatalf("roundFixed(%v, 10) refused", v)
			}
			got, want := string(appendTenths(nil, n)), strconv.FormatFloat(v, 'f', 1, 64)
			if want == "-0.0" {
				want = "0.0" // fixed point has one zero
			}
			if got != want {
				t.Fatalf("tenths of %v (%x): %s, strconv prints %s", v, v, got, want)
			}
			if back, _ := strconv.ParseFloat(want, 64); tenths(n) != back {
				t.Fatalf("tenths(%d) = %v, %q parses to %v", n, tenths(n), want, back)
			}
			u, _ := roundFixed(v, 1)
			if got, want := strconv.FormatInt(u, 10), strconv.FormatFloat(v, 'f', 0, 64); got != want && want != "-0" {
				t.Fatalf("units of %v: %s, strconv prints %s", v, got, want)
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e14, 999999999999999.4, 1e15, -2e300} {
		if _, ok := roundFixed(v, 10); ok {
			t.Errorf("roundFixed(%v) accepted", v)
		}
	}
}
