// Package layout is the reproduction's GraphViz substitute: a layered
// (Sugiyama-style) layout engine that positions the nodes of a MAL-plan
// digraph. The paper feeds dot files through the GraphViz library to
// obtain coordinates; this package computes them natively with the
// classic three phases — longest-path ranking, barycenter crossing
// reduction, and coordinate assignment — and is tuned to stay fast beyond
// the paper's ">1000 nodes" claim (feature #5, experiment F2).
package layout

import (
	"cmp"
	"fmt"
	"slices"

	"stethoscope/internal/dot"
)

// Rect is a node's placed box in layout coordinates (y grows downward).
type Rect struct {
	X, Y, W, H float64
}

// CenterX returns the horizontal center.
func (r Rect) CenterX() float64 { return r.X + r.W/2 }

// CenterY returns the vertical center.
func (r Rect) CenterY() float64 { return r.Y + r.H/2 }

// Options tunes the geometry.
type Options struct {
	CharWidth  float64 // label width per character
	MinWidth   float64 // minimum node width
	MaxWidth   float64 // clamp for very long labels
	NodeHeight float64
	HGap       float64 // horizontal gap between nodes in a rank
	VGap       float64 // vertical gap between ranks
	Sweeps     int     // barycenter passes (each pass = down + up)
}

// DefaultOptions returns geometry that matches typical dot output.
func DefaultOptions() Options {
	return Options{
		CharWidth:  7,
		MinWidth:   40,
		MaxWidth:   420,
		NodeHeight: 28,
		HGap:       24,
		VGap:       48,
		Sweeps:     4,
	}
}

// Layout is the computed placement, indexed like the graph's Nodes.
type Layout struct {
	Rects  []Rect    // node i's box
	Order  [][]int32 // node indexes per rank, left to right
	Width  float64
	Height float64
}

// Compute lays out the graph. The graph must be acyclic (MAL dataflow
// graphs are); a cycle is reported as an error.
func Compute(g *dot.Graph, opt Options) (*Layout, error) {
	if opt.Sweeps <= 0 {
		opt = DefaultOptions()
	}
	n := len(g.Nodes)
	if n == 0 {
		return &Layout{}, nil
	}

	succ, pred := adjacency(g)
	rank, err := longestPathRanks(succ, pred)
	if err != nil {
		return nil, err
	}
	maxRank := int32(0)
	for _, r := range rank {
		maxRank = max(maxRank, r)
	}

	order := initialOrder(rank, maxRank, succ)
	barycenterSweeps(order, succ, pred, opt.Sweeps)

	// Coordinate assignment.
	lay := &Layout{Rects: make([]Rect, n), Order: order}
	widths := make([]float64, n)
	for i := range g.Nodes {
		w := opt.MinWidth
		if label := g.Nodes[i].Label(); label != "" {
			w = max(w, float64(len(label))*opt.CharWidth+16)
		}
		widths[i] = min(w, opt.MaxWidth)
	}
	rowWidths := make([]float64, len(order))
	for r, row := range order {
		var total float64
		for _, v := range row {
			total += widths[v] + opt.HGap
		}
		if len(row) > 0 {
			total -= opt.HGap
		}
		rowWidths[r] = total
		lay.Width = max(lay.Width, total)
	}
	for r, row := range order {
		x := (lay.Width - rowWidths[r]) / 2
		y := float64(r) * (opt.NodeHeight + opt.VGap)
		for _, v := range row {
			lay.Rects[v] = Rect{X: x, Y: y, W: widths[v], H: opt.NodeHeight}
			x += widths[v] + opt.HGap
		}
	}
	lay.Height = float64(maxRank)*(opt.NodeHeight+opt.VGap) + opt.NodeHeight
	return lay, nil
}

// adjacency returns every node's successors and predecessors in edge
// order, as sub-slices of one slab; self loops are dropped.
func adjacency(g *dot.Graph) (succ, pred [][]int32) {
	n := len(g.Nodes)
	succ, pred = make([][]int32, n), make([][]int32, n)
	outs, ins := make([]int32, n), make([]int32, n)
	m := 0
	for _, e := range g.Edges {
		if e.From != e.To {
			outs[e.From]++
			ins[e.To]++
			m++
		}
	}
	slab := make([]int32, 2*m)
	for v := range succ {
		succ[v], slab = slab[:0:outs[v]], slab[outs[v]:]
		pred[v], slab = slab[:0:ins[v]], slab[ins[v]:]
	}
	for _, e := range g.Edges {
		if e.From != e.To {
			succ[e.From] = append(succ[e.From], e.To)
			pred[e.To] = append(pred[e.To], e.From)
		}
	}
	return succ, pred
}

// longestPathRanks assigns each node the length of the longest path from
// any root, via Kahn topological order; an unprocessable remainder means
// a cycle.
func longestPathRanks(succ, pred [][]int32) ([]int32, error) {
	n := len(succ)
	rank := make([]int32, n)
	indeg := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := range pred {
		indeg[v] = int32(len(pred[v]))
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range succ[v] {
			rank[w] = max(rank[w], rank[v]+1)
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("layout: graph contains a cycle (%d of %d nodes ranked)", len(queue), n)
	}
	return rank, nil
}

// initialOrder seeds per-rank left-to-right order by BFS discovery. The
// rows are sub-slices of one slab.
func initialOrder(rank []int32, maxRank int32, succ [][]int32) [][]int32 {
	n := len(rank)
	sizes := make([]int32, maxRank+1)
	for _, r := range rank {
		sizes[r]++
	}
	order := make([][]int32, maxRank+1)
	slab := make([]int32, n)
	for r, size := range sizes {
		order[r], slab = slab[:0:size], slab[size:]
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for v := range rank {
		if rank[v] == 0 {
			queue = append(queue, int32(v))
			visited[v] = true
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		order[rank[v]] = append(order[rank[v]], v)
		for _, w := range succ[v] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	// Disconnected leftovers (shouldn't happen for ranked DAGs, but be
	// safe).
	for v := range rank {
		if !visited[v] {
			order[rank[v]] = append(order[rank[v]], int32(v))
		}
	}
	return order
}

// barycenterSweeps reduces crossings: alternate downward passes (order
// each rank by the mean position of predecessors) and upward passes
// (by successors).
func barycenterSweeps(order [][]int32, succ, pred [][]int32, sweeps int) {
	n := len(succ)
	pos := make([]int, n)
	for _, row := range order {
		for i, v := range row {
			pos[v] = i
		}
	}
	// key is a node's barycenter, computed for a whole row before it is
	// sorted: positions change only after the sort.
	key := make([]float64, n)
	sortRow := func(row []int32, neighbors [][]int32) {
		for _, v := range row {
			key[v] = float64(pos[v])
			if ws := neighbors[v]; len(ws) > 0 {
				sum := 0
				for _, w := range ws {
					sum += pos[w]
				}
				key[v] = float64(sum) / float64(len(ws))
			}
		}
		slices.SortStableFunc(row, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
		for i, v := range row {
			pos[v] = i
		}
	}
	for s := 0; s < sweeps; s++ {
		// Downward: ranks 1..max ordered by predecessor barycenter.
		for r := 1; r < len(order); r++ {
			sortRow(order[r], pred)
		}
		// Upward: ranks max-1..0 ordered by successor barycenter.
		for r := len(order) - 2; r >= 0; r-- {
			sortRow(order[r], succ)
		}
	}
}
