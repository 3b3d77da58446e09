// Package core implements Stethoscope itself: the interactive visual
// analysis platform of the paper. It ties the substrates together —
// dot/layout/svg for the plan graph, zvtm for glyphs and navigation,
// trace/profiler for execution data, netproto for the online stream —
// and adds the paper's contributions: execution-state coloring (§4.2.1),
// trace replay with fast-forward/rewind/pause, birds-eye clustering,
// per-thread utilization analysis, tooltips and the debug window, and
// the online textual Stethoscope.
package core

import (
	"fmt"
	"sort"

	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
)

// Color is a node execution-state color.
type Color string

// The paper's palette: "A node is colored RED or GREEN based on the
// instruction status of 'start' or 'done' respectively."
const (
	ColorNone  Color = ""
	ColorRed   Color = "#e03131" // running / long-running (start)
	ColorGreen Color = "#2f9e44" // completed (done)
)

// Coloring maps program counters to their display colors. Absent pcs are
// uncolored.
type Coloring map[int]Color

// PairElision implements the paper's §4.2.1 online coloring algorithm
// over an event buffer: "Most instructions in the execution trace occur
// in sequence of pairs of 'start' and 'done' events. A consecutive
// 'start' and 'done' event status for the same instruction, with presence
// of more instructions afterwards, indicates that the instruction under
// analysis executed in least time. Hence, it is not a costly instruction.
// All such instructions are not colored. An instruction which does not
// appear in a sequence of pairs of 'start' and 'done' event is colored."
//
// Concretely, scanning the buffer in order:
//   - a start immediately followed by the same instruction's done is an
//     adjacent pair: elided (not colored);
//   - a start NOT immediately followed by its done, with at least one
//     later event, marks a long-running instruction: colored RED (this is
//     the paper's worked example, where pc=3 turns red);
//   - a start that is the buffer's final event is indeterminate — its
//     done may simply not have arrived — and stays uncolored;
//   - a done whose start was displaced earlier in the buffer means the
//     instruction finished after running long: colored GREEN.
func PairElision(events []profiler.Event) Coloring {
	out := Coloring{}
	n := len(events)
	for i := 0; i < n; i++ {
		e := events[i]
		switch e.State {
		case profiler.StateStart:
			if i+1 < n && events[i+1].State == profiler.StateDone && events[i+1].PC == e.PC {
				// Adjacent pair: fast instruction, elided.
				i++
				continue
			}
			if i == n-1 {
				// Tail start: indeterminate, leave uncolored.
				continue
			}
			out[e.PC] = ColorRed
		case profiler.StateDone:
			// A done reached outside an adjacent pair: the instruction ran
			// long enough for other events to interleave.
			out[e.PC] = ColorGreen
		}
	}
	return out
}

// Threshold implements the paper's second algorithm: "another algorithm
// which allows the user to specify an instruction execution threshold
// time." Instructions whose measured duration is at least thresholdUs are
// colored GREEN (finished, costly); instructions still running at the end
// of the buffer whose elapsed time already exceeds the threshold are
// colored RED.
func Threshold(events []profiler.Event, thresholdUs int64) Coloring {
	out := Coloring{}
	startClk := map[int]int64{}
	done := map[int]bool{}
	var lastClk int64
	for _, e := range events {
		if e.ClkUs > lastClk {
			lastClk = e.ClkUs
		}
		switch e.State {
		case profiler.StateStart:
			startClk[e.PC] = e.ClkUs
		case profiler.StateDone:
			done[e.PC] = true
			if e.DurUs >= thresholdUs {
				out[e.PC] = ColorGreen
			}
		}
	}
	for pc, clk := range startClk {
		if done[pc] {
			continue
		}
		if lastClk-clk >= thresholdUs {
			out[pc] = ColorRed
		}
	}
	return out
}

// GradientStop is one entry of a gradient legend.
type GradientStop struct {
	PC    int
	DurUs int64
	Hex   string
}

// Gradient implements the paper's future-work feature (§6): "gradient
// coloring of graph nodes to display a range of execution times."
// Completed instructions are colored on a white-to-red ramp scaled by
// the slowest instruction in the buffer. It returns the per-pc colors
// and a legend sorted by decreasing duration.
func Gradient(events []profiler.Event) (Coloring, []GradientStop) {
	folded := foldByPC(events)
	var max int64
	for _, f := range folded {
		if f.durUs > max {
			max = f.durUs
		}
	}
	out := Coloring{}
	var stops []GradientStop
	for _, f := range folded {
		r := 0.0
		if max > 0 {
			r = float64(f.durUs) / float64(max)
		}
		hex := rampHex(r)
		out[f.pc] = Color(hex)
		stops = append(stops, GradientStop{PC: f.pc, DurUs: f.durUs, Hex: hex})
	}
	sort.Slice(stops, func(i, j int) bool {
		if stops[i].DurUs != stops[j].DurUs {
			return stops[i].DurUs > stops[j].DurUs
		}
		return stops[i].PC < stops[j].PC
	})
	return out, stops
}

// rampHex interpolates white (f=0) to red (f=1).
func rampHex(f float64) string {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	g := int(255 * (1 - f*0.85))
	return fmt.Sprintf("#ff%02x%02x", g, g)
}

// Fill returns the per-node display fill of g under the coloring: node
// i takes the color of the instruction whose node it is ("" when
// uncolored).
func (c Coloring) Fill(g *dot.Graph) func(i int) string {
	fills := make([]string, len(g.Nodes))
	for pc, color := range c {
		if i, ok := g.PCNode(pc); ok {
			fills[i] = string(color)
		}
	}
	return func(i int) string { return fills[i] }
}
