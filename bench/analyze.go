package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"stethoscope"
)

// analyze-offline: the client half of the paper. Set-up executes six
// statements at 16 and 64 partitions and keeps the twelve (dot, trace) text
// pairs — 70 to 2300 nodes, 140 to 4700 events, the paper's Figure-2 regime.
// One op turns a pair into pictures the way a user would: open, render,
// recolour, render again, replay a hundred events, write the report.

var (
	pairQueries    = []string{"Q1", "Q3", "Q6", "Q12", "QX1", "QX2"}
	pairPartitions = []int{16, 64}
)

const replaySteps = 100

// pair is one offline input and the digest a correct op produces from it.
type pair struct {
	id         string
	dot, trace string
	want       digest
}

// makePairs executes the pair statements and records the reference digest of
// each pair's pictures. The seed decides the order the ops walk them in.
func makePairs(sf float64, seed int64) ([]pair, error) {
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(sf), stethoscope.WithWorkers(stethoscope.Auto))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var pairs []pair
	for _, id := range pairQueries {
		q, ok := stethoscope.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("no bundled query %s", id)
		}
		for _, parts := range pairPartitions {
			res, err := db.Exec(context.Background(), oneLine(q.SQL), stethoscope.ExecPartitions(parts))
			if err != nil {
				return nil, fmt.Errorf("%s at %d partitions: %w", id, parts, err)
			}
			p := pair{id: fmt.Sprintf("%s/p%d", id, parts), dot: res.Dot(), trace: res.TraceText()}
			out, err := analyzeOnce(p, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.id, err)
			}
			p.want = out.sum
			pairs = append(pairs, p)
		}
	}
	r := workloadByName("analyze-offline").rng(seed, "pairs")
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs, nil
}

// opOutput is what one analysis op delivered.
type opOutput struct {
	bytes int // SVG text
	nodes int
	sum   digest // over both SVG documents
}

// analyzeOnce is the op. tr, when non-nil, records a span around every call
// into the facade (the traced pass); the untraced pass passes nil.
func analyzeOnce(p pair, tr *tracer) (opOutput, error) {
	var out opOutput
	var a *stethoscope.Analysis
	var err error
	tr.do("analysis.open", func() { a, err = stethoscope.OpenOffline(p.dot, p.trace) })
	if err != nil {
		return out, err
	}
	if !a.MappingComplete() {
		return out, fmt.Errorf("trace does not map onto the graph: %s", a.MappingSummary())
	}
	out.nodes = a.Nodes()
	h := sha256.New()
	paint := func() error {
		var svg string
		tr.do("svg.paint", func() { svg, err = a.SVG() })
		if err != nil {
			return err
		}
		if n := strings.Count(svg, `class="node">`); n != out.nodes {
			return fmt.Errorf("SVG has %d nodes, graph has %d", n, out.nodes)
		}
		out.bytes += len(svg)
		io.WriteString(h, svg)
		return nil
	}
	if err := paint(); err != nil { // pair-elision, the default colouring
		return out, err
	}
	tr.do("core.recolor", func() { a.Recolor(stethoscope.WithColoring(stethoscope.ColorGradient)) })
	if err := paint(); err != nil {
		return out, err
	}
	tr.do("core.replay", func() {
		now := time.Unix(0, 0)
		replay := a.Replay()
		for i := 0; i < replaySteps; i++ {
			if _, ok := replay.Step(now); !ok {
				break
			}
			now = now.Add(time.Millisecond)
		}
		a.FlushReplay(now.Add(time.Minute))
	})
	tr.do("core.report", func() { err = a.WriteReport(io.Discard, stethoscope.ReportOptions{}) })
	h.Sum(out.sum[:0])
	return out, err
}

// analyzeRun is the child's answer to "run <seconds>": one entry per op.
type analyzeRun struct {
	ElapsedNs int64    `json:"elapsed_ns"` // from the first op's start to the last op's end
	LatNs     []int64  `json:"lat_ns"`
	Bytes     []int    `json:"bytes"`
	Failed    int      `json:"failed"`
	Errs      []string `json:"errs,omitempty"`
}

func analyzeChild(spec childSpec, in *bufio.Scanner, out *json.Encoder, fail func(error) int) int {
	t := time.Now()
	pairs, err := makePairs(spec.SF, spec.Seed)
	if err != nil {
		return fail(err)
	}
	if spec.Corrupt {
		for i := 1; i < len(pairs); i += 2 {
			pairs[i].want[0] ^= 0xff
		}
	}
	out.Encode(childReady{Phases: map[string]float64{"pairs_s": time.Since(t).Seconds()}})
	next := 0 // round-robin over the pairs, continuing across runs
	for in.Scan() {
		var seconds float64
		if _, err := fmt.Sscanf(in.Text(), "run %g", &seconds); err != nil {
			continue
		}
		var run analyzeRun
		start := time.Now()
		for time.Since(start).Seconds() < seconds {
			p := pairs[next%len(pairs)]
			next++
			t0 := time.Now()
			res, err := analyzeOnce(p, nil)
			lat := time.Since(t0)
			if err == nil && res.sum != p.want {
				err = fmt.Errorf("%s: SVG digest differs from the reference", p.id)
			}
			if err != nil {
				run.Failed++
				if len(run.Errs) < 5 {
					run.Errs = append(run.Errs, err.Error())
				}
			}
			run.LatNs = append(run.LatNs, lat.Nanoseconds())
			run.Bytes = append(run.Bytes, res.bytes)
		}
		run.ElapsedNs = time.Since(start).Nanoseconds()
		out.Encode(run)
	}
	return 0
}
