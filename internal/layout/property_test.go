package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"stethoscope/internal/dot"
)

// randomDAG builds a random layered DAG: edges always point from a lower
// to a higher node index, guaranteeing acyclicity.
func randomDAG(r *rand.Rand, nodes, edges int) *dot.Graph {
	var stmts []string
	for i := 0; i < nodes; i++ {
		stmts = append(stmts, fmt.Sprintf("v%d [label=op]", i))
	}
	for e := 0; e < edges; e++ {
		a := r.Intn(nodes - 1)
		b := a + 1 + r.Intn(nodes-a-1)
		stmts = append(stmts, fmt.Sprintf("v%d -> v%d", a, b))
	}
	return graphOf("random", stmts...)
}

// TestRandomDAGInvariants checks the layout invariants on many random
// DAGs: every node is placed, no two nodes overlap, and every edge points
// strictly downward in rank.
func TestRandomDAGInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nodes := 2 + r.Intn(60)
		edges := r.Intn(3 * nodes)
		g := randomDAG(r, nodes, edges)
		lay, err := Compute(g, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(lay.Positions) != nodes {
			t.Fatalf("trial %d: placed %d of %d", trial, len(lay.Positions), nodes)
		}
		// Rank monotonicity along edges.
		rank := ranks(lay)
		for _, e := range g.Edges {
			if e.From == e.To {
				continue
			}
			if rank[e.To] <= rank[e.From] {
				t.Fatalf("trial %d: edge %s->%s ranks %d->%d",
					trial, e.From, e.To, rank[e.From], rank[e.To])
			}
		}
		// No overlaps within any rank (cross-rank can't overlap by
		// construction of Y).
		for _, row := range lay.Order {
			for i := 0; i < len(row); i++ {
				for j := i + 1; j < len(row); j++ {
					a, b := lay.Positions[row[i]], lay.Positions[row[j]]
					if a.X < b.X+b.W && b.X < a.X+a.W {
						t.Fatalf("trial %d: %s and %s overlap in rank", trial, row[i], row[j])
					}
				}
			}
		}
		// Bounds contain every node.
		for id, rect := range lay.Positions {
			if rect.X < -1e-9 || rect.Y < -1e-9 || rect.X+rect.W > lay.Width+1e-9 || rect.Y+rect.H > lay.Height+1e-9 {
				t.Fatalf("trial %d: %s outside bounds", trial, id)
			}
		}
	}
}

// TestRandomGraphDotRoundTrip pushes random DAGs through marshal/parse.
func TestRandomGraphDotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, 2+r.Intn(40), r.Intn(80))
		back, err := dot.Parse(g.Marshal())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) {
			t.Fatalf("trial %d: %d/%d nodes, %d/%d edges",
				trial, len(back.Nodes), len(g.Nodes), len(back.Edges), len(g.Edges))
		}
	}
}

func BenchmarkLayoutRandom500(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := randomDAG(r, 500, 1200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
