// Package ascii renders Stethoscope's display surfaces for terminals: the
// plan graph with execution-state colors (the reproduction's stand-in for
// the paper's Figure 4 display window), per-thread utilization bars, and
// the birds-eye trace strip. ANSI color output is optional so tests and
// files get plain text.
package ascii

import (
	"fmt"
	"sort"
	"strings"

	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
)

// Options controls rendering.
type Options struct {
	Width int  // target character width (minimum 40)
	ANSI  bool // emit ANSI color escapes
}

// DefaultOptions renders 100 columns wide without color.
func DefaultOptions() Options { return Options{Width: 100} }

// ansiFor maps a fill color to an ANSI escape. The Stethoscope palette is
// red/green; gradient hexes map to red intensity.
func ansiFor(hex string) string {
	switch {
	case hex == "":
		return ""
	case hex == string(core.ColorRed):
		return "\x1b[41;97m" // red background
	case hex == string(core.ColorGreen):
		return "\x1b[42;97m" // green background
	case strings.HasPrefix(hex, "#ff"):
		return "\x1b[101;30m" // bright red-ish (gradient)
	default:
		return "\x1b[47;30m"
	}
}

const ansiReset = "\x1b[0m"

// marker returns a one-character state marker for plain output: start
// (red) '*', done (green) '+', uncolored ' '.
func marker(hex string) byte {
	switch hex {
	case "":
		return ' '
	case string(core.ColorRed):
		return '*'
	case string(core.ColorGreen):
		return '+'
	default:
		return '~'
	}
}

// RenderGraph draws the laid-out graph rank by rank. Each node renders
// as [id|m] where m is the state marker of its fill, fill(i) for node i;
// horizontal placement follows the layout proportionally, so the picture
// preserves the plan's shape.
func RenderGraph(g *dot.Graph, lay *layout.Layout, fill func(i int) string, opt Options) string {
	if opt.Width < 40 {
		opt.Width = 40
	}
	if lay.Width <= 0 || len(lay.Order) == 0 {
		return "(empty plan)\n"
	}
	var b strings.Builder
	scale := float64(opt.Width-2) / lay.Width
	for r, row := range lay.Order {
		line := make([]byte, opt.Width)
		for i := range line {
			line[i] = ' '
		}
		type span struct {
			at    int
			token string
			fill  string
		}
		var spans []span
		for _, v := range row {
			rect, f := lay.Rects[v], fill(int(v))
			token := "[" + g.Nodes[v].ID + string(marker(f)) + "]"
			at := int(rect.CenterX()*scale) - len(token)/2
			if at < 0 {
				at = 0
			}
			if at+len(token) > opt.Width {
				at = opt.Width - len(token)
			}
			spans = append(spans, span{at: at, token: token, fill: f})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].at < spans[j].at })
		// Resolve collisions by pushing right.
		cursor := 0
		for i := range spans {
			if spans[i].at < cursor {
				spans[i].at = cursor
			}
			cursor = spans[i].at + len(spans[i].token) + 1
		}
		// Plain placement first.
		for _, s := range spans {
			if s.at+len(s.token) <= len(line) {
				copy(line[s.at:], s.token)
			}
		}
		if opt.ANSI {
			// Re-emit with color escapes.
			var colored strings.Builder
			last := 0
			for _, s := range spans {
				if s.at+len(s.token) > len(line) {
					continue
				}
				colored.WriteString(string(line[last:s.at]))
				if esc := ansiFor(s.fill); esc != "" {
					colored.WriteString(esc)
					colored.WriteString(s.token)
					colored.WriteString(ansiReset)
				} else {
					colored.WriteString(s.token)
				}
				last = s.at + len(s.token)
			}
			colored.WriteString(strings.TrimRight(string(line[last:]), " "))
			fmt.Fprintf(&b, "r%02d %s\n", r, colored.String())
		} else {
			fmt.Fprintf(&b, "r%02d %s\n", r, strings.TrimRight(string(line), " "))
		}
	}
	fmt.Fprintf(&b, "(%d nodes, %d edges; * running, + done)\n", len(g.Nodes), len(g.Edges))
	return b.String()
}

// RenderUtilization draws per-thread busy-time bars — the online demo's
// multi-core utilization view.
func RenderUtilization(u core.Utilization, opt Options) string {
	if opt.Width < 40 {
		opt.Width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "span %dus, %d threads, parallelism %.2f\n", u.SpanUs, u.Threads, u.Parallelism)
	if len(u.BusyUs) == 0 {
		return b.String()
	}
	threads := make([]int, 0, len(u.BusyUs))
	var max int64
	for t, busy := range u.BusyUs {
		threads = append(threads, t)
		if busy > max {
			max = busy
		}
	}
	sort.Ints(threads)
	barW := opt.Width - 24
	for _, t := range threads {
		busy := u.BusyUs[t]
		n := 0
		if max > 0 {
			n = int(int64(barW) * busy / max)
		}
		fmt.Fprintf(&b, "thread %2d %8dus %s\n", t, busy, strings.Repeat("#", n))
	}
	return b.String()
}

// RenderBirdsEye draws the trace clustering strip: one segment per
// cluster labeled with its dominant module.
func RenderBirdsEye(clusters []core.Cluster, opt Options) string {
	if len(clusters) == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	var totalBusy int64
	for _, c := range clusters {
		totalBusy += c.BusyUs
	}
	for i, c := range clusters {
		frac := 0.0
		if totalBusy > 0 {
			frac = float64(c.BusyUs) / float64(totalBusy)
		}
		fmt.Fprintf(&b, "seg %2d seq[%d..%d] %4d events %8dus %5.1f%% %s\n",
			i, c.FromSeq, c.ToSeq, c.Events, c.BusyUs, frac*100, c.Module)
	}
	return b.String()
}

// RenderCostly draws the costly-instruction table.
func RenderCostly(items []core.CostlyInstr, opt Options) string {
	if len(items) == 0 {
		return "(no completed instructions)\n"
	}
	var b strings.Builder
	for i, it := range items {
		stmt := it.Stmt
		if max := opt.Width - 24; max > 10 && len(stmt) > max {
			stmt = stmt[:max-1] + "…"
		}
		fmt.Fprintf(&b, "%2d. pc=%-5d %8dus  %s\n", i+1, it.PC, it.DurUs, stmt)
	}
	return b.String()
}

// RenderGantt draws the per-thread execution segments as a time-scaled
// Gantt chart: one row per thread, '#' runs for busy intervals. The data
// comes from core.ThreadTimeline.
func RenderGantt(timeline map[int][]core.Segment, opt Options) string {
	if opt.Width < 40 {
		opt.Width = 40
	}
	if len(timeline) == 0 {
		return "(no segments)\n"
	}
	var maxUs int64
	threads := make([]int, 0, len(timeline))
	for th, segs := range timeline {
		threads = append(threads, th)
		for _, s := range segs {
			if s.ToUs > maxUs {
				maxUs = s.ToUs
			}
		}
	}
	sort.Ints(threads)
	if maxUs == 0 {
		maxUs = 1
	}
	barW := opt.Width - 12
	var b strings.Builder
	for _, th := range threads {
		row := make([]byte, barW)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range timeline[th] {
			lo := int(s.FromUs * int64(barW) / maxUs)
			hi := int(s.ToUs * int64(barW) / maxUs)
			if hi == lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < barW; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "thread %2d |%s|\n", th, string(row))
	}
	fmt.Fprintf(&b, "          0%sus\n", strings.Repeat(" ", barW-len(fmt.Sprint(maxUs)))+fmt.Sprint(maxUs))
	return b.String()
}

// RenderMemoryTimeline draws the cumulative rss curve as a bar series.
func RenderMemoryTimeline(pts []core.MemPoint, opt Options) string {
	if len(pts) == 0 {
		return "(no memory samples)\n"
	}
	if opt.Width < 40 {
		opt.Width = 40
	}
	var max int64
	for _, p := range pts {
		if p.RSSKB > max {
			max = p.RSSKB
		}
	}
	if max == 0 {
		max = 1
	}
	barW := opt.Width - 28
	var b strings.Builder
	for _, p := range pts {
		n := int(p.RSSKB * int64(barW) / max)
		fmt.Fprintf(&b, "clk %10dus %8dKB %s\n", p.ClkUs, p.RSSKB, strings.Repeat("#", n))
	}
	return b.String()
}
