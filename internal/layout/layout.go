// Package layout is the reproduction's GraphViz substitute: a layered
// (Sugiyama-style) layout engine that positions the nodes of a MAL-plan
// digraph. The paper feeds dot files through the GraphViz library to
// obtain coordinates; this package computes them natively with the
// classic three phases — longest-path ranking, barycenter crossing
// reduction, and coordinate assignment — and is tuned to stay fast beyond
// the paper's ">1000 nodes" claim (feature #5, experiment F2).
package layout

import (
	"fmt"
	"sort"

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

// Layout is the computed placement.
type Layout struct {
	Positions map[string]Rect
	Order     [][]string // node IDs per rank, left to right
	Width     float64
	Height    float64
}

// Compute lays out the graph. The graph must be acyclic (MAL dataflow
// graphs are); a cycle is reported as an error.
func Compute(g *dot.Graph, opt Options) (*Layout, error) {
	if opt.Sweeps <= 0 {
		opt = DefaultOptions()
	}
	n := len(g.Nodes)
	if n == 0 {
		return &Layout{Positions: map[string]Rect{}}, nil
	}

	idx := make(map[string]int, n)
	for i, node := range g.Nodes {
		idx[node.ID] = i
	}
	succ := make([][]int, n)
	pred := make([][]int, n)
	for _, e := range g.Edges {
		f, okF := idx[e.From]
		t, okT := idx[e.To]
		if !okF || !okT {
			return nil, fmt.Errorf("layout: edge references unknown node %s -> %s", e.From, e.To)
		}
		if f == t {
			continue // ignore self loops
		}
		succ[f] = append(succ[f], t)
		pred[t] = append(pred[t], f)
	}

	rank, err := longestPathRanks(n, succ, pred)
	if err != nil {
		return nil, err
	}
	maxRank := 0
	for _, r := range rank {
		if r > maxRank {
			maxRank = r
		}
	}

	order := initialOrder(n, rank, maxRank, succ)
	barycenterSweeps(order, rank, succ, pred, opt.Sweeps)

	// Coordinate assignment.
	lay := &Layout{Positions: make(map[string]Rect, n)}
	widths := make([]float64, n)
	for i, node := range g.Nodes {
		w := opt.MinWidth
		if label := node.Label(); label != "" {
			lw := float64(len(label))*opt.CharWidth + 16
			if lw > w {
				w = lw
			}
		}
		if w > opt.MaxWidth {
			w = opt.MaxWidth
		}
		widths[i] = w
	}
	rowWidths := make([]float64, maxRank+1)
	for r, row := range order {
		var total float64
		for _, v := range row {
			total += widths[v] + opt.HGap
		}
		if len(row) > 0 {
			total -= opt.HGap
		}
		rowWidths[r] = total
		if total > lay.Width {
			lay.Width = total
		}
	}
	lay.Order = make([][]string, maxRank+1)
	for r, row := range order {
		x := (lay.Width - rowWidths[r]) / 2
		y := float64(r) * (opt.NodeHeight + opt.VGap)
		for _, v := range row {
			id := g.Nodes[v].ID
			lay.Positions[id] = Rect{X: x, Y: y, W: widths[v], H: opt.NodeHeight}
			lay.Order[r] = append(lay.Order[r], id)
			x += widths[v] + opt.HGap
		}
	}
	lay.Height = float64(maxRank)*(opt.NodeHeight+opt.VGap) + opt.NodeHeight
	return lay, nil
}

// longestPathRanks assigns each node the length of the longest path from
// any root, via Kahn topological order; an unprocessable remainder means
// a cycle.
func longestPathRanks(n int, succ, pred [][]int) ([]int, error) {
	rank := make([]int, n)
	indeg := make([]int, n)
	for v := range pred {
		indeg[v] = len(pred[v])
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		processed++
		for _, w := range succ[v] {
			if rank[v]+1 > rank[w] {
				rank[w] = rank[v] + 1
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if processed != n {
		return nil, fmt.Errorf("layout: graph contains a cycle (%d of %d nodes ranked)", processed, n)
	}
	return rank, nil
}

// initialOrder seeds per-rank left-to-right order by BFS discovery.
func initialOrder(n int, rank []int, maxRank int, succ [][]int) [][]int {
	order := make([][]int, maxRank+1)
	visited := make([]bool, n)
	var queue []int
	for v := 0; v < n; v++ {
		if rank[v] == 0 {
			queue = append(queue, v)
			visited[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
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
	for v := 0; v < n; v++ {
		if !visited[v] {
			order[rank[v]] = append(order[rank[v]], v)
		}
	}
	return order
}

// barycenterSweeps reduces crossings: alternate downward passes (order
// each rank by the mean position of predecessors) and upward passes
// (by successors).
func barycenterSweeps(order [][]int, rank []int, succ, pred [][]int, sweeps int) {
	n := len(rank)
	pos := make([]int, n)
	refresh := func() {
		for _, row := range order {
			for i, v := range row {
				pos[v] = i
			}
		}
	}
	refresh()
	medianOf := func(v int, neighbors []int) float64 {
		if len(neighbors) == 0 {
			return float64(pos[v])
		}
		sum := 0
		for _, w := range neighbors {
			sum += pos[w]
		}
		return float64(sum) / float64(len(neighbors))
	}
	for s := 0; s < sweeps; s++ {
		// Downward: ranks 1..max ordered by predecessor barycenter.
		for r := 1; r < len(order); r++ {
			row := order[r]
			sort.SliceStable(row, func(i, j int) bool {
				return medianOf(row[i], pred[row[i]]) < medianOf(row[j], pred[row[j]])
			})
			for i, v := range row {
				pos[v] = i
			}
		}
		// Upward: ranks max-1..0 ordered by successor barycenter.
		for r := len(order) - 2; r >= 0; r-- {
			row := order[r]
			sort.SliceStable(row, func(i, j int) bool {
				return medianOf(row[i], succ[row[i]]) < medianOf(row[j], succ[row[j]])
			})
			for i, v := range row {
				pos[v] = i
			}
		}
	}
}
