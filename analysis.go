package stethoscope

import (
	"fmt"
	"io"
	"time"

	"stethoscope/internal/ascii"
	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/trace"
)

// ColorAlgo selects the execution-state coloring algorithm.
type ColorAlgo string

// The paper's coloring algorithms: pair-elision (§4.2.1, the online
// default), threshold (user-specified execution-time cutoff), and
// gradient (the §6 future-work ramp).
const (
	ColorPair      ColorAlgo = "pair"
	ColorThreshold ColorAlgo = "threshold"
	ColorGradient  ColorAlgo = "gradient"
)

// ParseColorAlgo parses a CLI spelling of a coloring algorithm.
func ParseColorAlgo(s string) (ColorAlgo, error) {
	switch ColorAlgo(s) {
	case ColorPair, ColorThreshold, ColorGradient:
		return ColorAlgo(s), nil
	}
	return ColorPair, fmt.Errorf("stethoscope: unknown coloring %q (have pair, threshold, gradient)", s)
}

// analyzeConfig collects the Analyze-time settings.
type analyzeConfig struct {
	algo        ColorAlgo
	thresholdUs int64
	dispatch    time.Duration
}

// AnalyzeOption configures Analyze, OpenOffline, Monitor.Analyze, and
// Analysis.Recolor.
type AnalyzeOption func(*analyzeConfig)

// WithColoring selects the coloring algorithm (default pair-elision).
func WithColoring(a ColorAlgo) AnalyzeOption { return func(c *analyzeConfig) { c.algo = a } }

// WithThreshold sets the threshold coloring's cutoff in microseconds
// (default 1000).
func WithThreshold(us int64) AnalyzeOption { return func(c *analyzeConfig) { c.thresholdUs = us } }

// WithDispatchDelay overrides the render queue's per-node dispatch
// latency; zero selects the paper's 150 ms ceiling.
func WithDispatchDelay(d time.Duration) AnalyzeOption {
	return func(c *analyzeConfig) { c.dispatch = d }
}

// Analysis is one visual-analysis window over a plan graph and its
// execution trace: the laid-out glyph space, the pc-to-node mapping, a
// coloring, and a replay controller.
type Analysis struct {
	traceView

	sess   *core.Session
	cfg    analyzeConfig
	colors Coloring
	legend []GradientStop
}

// Analyze opens the visual-analysis session for an executed query — the
// in-process equivalent of writing the dot + trace pair to disk and
// reopening it offline.
func Analyze(res *Result, opts ...AnalyzeOption) (*Analysis, error) {
	return newAnalysis(dot.Export(res.prep.Plan), res.store(), opts)
}

// OpenOffline opens a session from dot-file and trace-file content, the
// paper's offline workflow (§4.1).
func OpenOffline(dotText, traceText string, opts ...AnalyzeOption) (*Analysis, error) {
	g, err := dot.Parse(dotText)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: dot file: %w", err)
	}
	st, err := trace.LoadString(traceText)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: trace file: %w", err)
	}
	return newAnalysis(g, st, opts)
}

func newAnalysis(g *dot.Graph, st *trace.Store, opts []AnalyzeOption) (*Analysis, error) {
	cfg := analyzeConfig{algo: ColorPair, thresholdUs: 1000}
	for _, o := range opts {
		o(&cfg)
	}
	sess, err := core.NewSession(g, st, core.SessionOptions{DispatchDelay: cfg.dispatch})
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	a := &Analysis{traceView: traceView{tstore: st}, sess: sess, cfg: cfg}
	a.recolor()
	return a, nil
}

// recolor recomputes the coloring from the current configuration.
func (a *Analysis) recolor() {
	events := a.store().Events()
	switch a.cfg.algo {
	case ColorThreshold:
		a.colors = core.Threshold(events, a.cfg.thresholdUs)
		a.legend = nil
	case ColorGradient:
		a.colors, a.legend = core.Gradient(events)
	default:
		a.colors = core.PairElision(events)
		a.legend = nil
	}
}

// Recolor switches the coloring algorithm or threshold in place.
func (a *Analysis) Recolor(opts ...AnalyzeOption) {
	for _, o := range opts {
		o(&a.cfg)
	}
	a.recolor()
}

// Nodes returns the plan graph's node count.
func (a *Analysis) Nodes() int { return len(a.sess.Graph.Nodes) }

// Edges returns the plan graph's edge count.
func (a *Analysis) Edges() int { return len(a.sess.Graph.Edges) }

// Algo returns the active coloring algorithm.
func (a *Analysis) Algo() ColorAlgo { return a.cfg.algo }

// Coloring returns the active coloring (pc → color).
func (a *Analysis) Coloring() Coloring { return a.colors }

// GradientLegend returns the gradient coloring's legend, sorted by
// decreasing duration (nil unless the gradient algorithm is active).
func (a *Analysis) GradientLegend() []GradientStop { return a.legend }

// MappingComplete reports whether every traced pc mapped onto a graph
// node with a matching label.
func (a *Analysis) MappingComplete() bool { return a.sess.Mapping.Complete() }

// MappingSummary describes mapping defects ("" when complete).
func (a *Analysis) MappingSummary() string {
	if a.sess.Mapping.Complete() {
		return ""
	}
	return fmt.Sprintf("%d unmatched pcs, %d label mismatches",
		len(a.sess.Mapping.Unmatched), len(a.sess.Mapping.LabelMismatches))
}

// RenderGraph renders the plan graph with the active coloring — the
// display window.
func (a *Analysis) RenderGraph(o RenderOptions) string {
	return ascii.RenderGraph(a.sess.Graph, a.sess.Layout, a.colors.Fill(a.sess.Graph), o)
}

// RenderReplay renders the plan graph with the replay controller's
// current node states instead of the coloring.
func (a *Analysis) RenderReplay(o RenderOptions) string {
	return ascii.RenderGraph(a.sess.Graph, a.sess.Layout, a.sess.Fill, o)
}

// SVG renders the colored display window as an SVG document. The glyph
// space is repainted from the active coloring alone, so colors from an
// earlier algorithm or replay state do not linger.
func (a *Analysis) SVG() (string, error) {
	a.sess.Show(a.colors)
	return a.sess.RenderSVG()
}

// Replay returns the trace replay controller (step, fast-forward,
// rewind, pause, seek).
func (a *Analysis) Replay() *Replay { return a.sess.Replay }

// FlushReplay drains the render queue up to the given time, completing
// pending dispatches after replay stepping.
func (a *Analysis) FlushReplay(now time.Time) { a.sess.Queue.Flush(now) }

// ColorBetween runs pair-elision over the trace window [from, to) — the
// "coloring between two instruction states" replay feature.
func (a *Analysis) ColorBetween(from, to int) (Coloring, error) {
	return a.sess.Replay.ColorBetween(from, to)
}

// NavigateTo animates the session camera to center on an instruction's
// node. viewW is the viewport width in pixels, durMs the transition
// time.
func (a *Analysis) NavigateTo(pc int, viewW, durMs float64) error {
	return a.sess.NavigateTo(pc, viewW, durMs)
}

// ReportOptions controls WriteReport.
type ReportOptions struct {
	// Render is the terminal geometry (zero value selects the default).
	Render RenderOptions
	// TopK bounds the costly-instruction list (default 10).
	TopK int
	// BirdsEyeBuckets sets the birds-eye cluster count (default 8).
	BirdsEyeBuckets int
}

// WriteReport writes the full analysis report: colored plan graph,
// costly instructions, multi-core utilization, birds-eye view, thread
// timeline, micro analysis, and any mapping warnings.
func (a *Analysis) WriteReport(w io.Writer, o ReportOptions) error {
	if o.Render.Width == 0 {
		o.Render.Width = DefaultRender().Width
	}
	if o.TopK == 0 {
		o.TopK = 10
	}
	if o.BirdsEyeBuckets == 0 {
		o.BirdsEyeBuckets = 8
	}
	_, err := fmt.Fprintf(w, "=== plan graph (%d nodes, %d edges; coloring: %s) ===\n%s",
		a.Nodes(), a.Edges(), a.cfg.algo, a.RenderGraph(o.Render))
	if err != nil {
		return err
	}
	sections := []struct {
		title string
		body  string
	}{
		{"costly instructions", RenderCostly(a.Costly(o.TopK), o.Render)},
		{"multi-core utilization", RenderUtilization(a.Utilization(), o.Render)},
		{"birds-eye view", RenderBirdsEye(a.BirdsEye(o.BirdsEyeBuckets), o.Render)},
		{"thread timeline", RenderGantt(a.ThreadTimeline(), o.Render)},
		{"micro analysis", a.MicroReport()},
	}
	for _, s := range sections {
		if _, err := fmt.Fprintf(w, "\n=== %s ===\n%s", s.title, s.body); err != nil {
			return err
		}
	}
	if !a.MappingComplete() {
		if _, err := fmt.Fprintf(w, "\nwarning: %s\n", a.MappingSummary()); err != nil {
			return err
		}
	}
	return nil
}
