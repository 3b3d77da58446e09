package stethoscope

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata goldens")

// syntheticTrace builds a deterministic trace for a plan's dot text: every
// node's instruction starts and finishes once, a quarter of them finishing
// only after the next instruction has started (so pair-elision has
// something to colour), with durations and threads drawn from a fixed
// linear congruential sequence (so the gradient has a range). A recorded
// trace carries wall-clock durations and cannot be pinned.
func syntheticTrace(tb testing.TB, dotText string) string {
	tb.Helper()
	g, err := dot.Parse(dotText)
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	var seq, clk int64
	state := uint64(19)
	emit := func(st profiler.State, pc int, thread int, dur int64, stmt string) {
		seq++
		clk += 1 + dur/7
		b.WriteString(profiler.Event{
			Seq: seq, State: st, PC: pc, Thread: thread, ClkUs: clk, DurUs: dur,
			RSSKB: 1024 + seq, Reads: dur % 97, Writes: dur % 13, Stmt: stmt,
		}.Marshal())
		b.WriteByte('\n')
	}
	type open struct {
		pc, thread int
		dur        int64
		stmt       string
	}
	var late *open
	for _, n := range g.Nodes {
		pc, ok := dot.PCOf(n.ID)
		if !ok {
			tb.Fatalf("node %q has no pc", n.ID)
		}
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		cur := open{pc: pc, thread: int(r % 4), dur: int64(1 + r%5000), stmt: n.Label()}
		emit(profiler.StateStart, cur.pc, cur.thread, 0, cur.stmt)
		if late != nil {
			emit(profiler.StateDone, late.pc, late.thread, late.dur, late.stmt)
			late = nil
		}
		if r%4 == 0 {
			late = &cur
			continue
		}
		emit(profiler.StateDone, cur.pc, cur.thread, cur.dur, cur.stmt)
	}
	if late != nil {
		emit(profiler.StateDone, late.pc, late.thread, late.dur, late.stmt)
	}
	return b.String()
}

// execBundled runs a bundled query, as one line, at the given partitions.
func execBundled(tb testing.TB, db *DB, id string, partitions int) *Result {
	tb.Helper()
	q, ok := QueryByID(id)
	if !ok {
		tb.Fatalf("no bundled query %s", id)
	}
	res, err := db.Exec(context.Background(), strings.Join(strings.Fields(q.SQL), " "), ExecPartitions(partitions))
	if err != nil {
		tb.Fatalf("%s at %d partitions: %v", id, partitions, err)
	}
	return res
}

// TestOfflineSVGGolden pins every picture the offline path draws, byte
// for byte: for the benchmark's twelve (query, partitions) pairs, the
// length and SHA-256 of Analysis.SVG under pair-elision, after
// Recolor(gradient), and of the session's RenderSVG after a hundred
// replay steps and a flush. The golden was generated at the commit
// before the session stopped going through SVG text and must survive any
// change to how the picture is built; `go test -run TestOfflineSVGGolden
// -update` regenerates it when a change to the picture (or to the plans
// behind it) is intended.
func TestOfflineSVGGolden(t *testing.T) {
	db, err := Open(WithScaleFactor(0.01), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var b strings.Builder
	record := func(pair, picture, svg string) {
		fmt.Fprintf(&b, "%s %s %d %x\n", pair, picture, len(svg), sha256.Sum256([]byte(svg)))
	}
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "QX1", "QX2"} {
		for _, parts := range []int{16, 64} {
			pair := fmt.Sprintf("%s/p%d", id, parts)
			dotText := execBundled(t, db, id, parts).Dot()
			a, err := OpenOffline(dotText, syntheticTrace(t, dotText))
			if err != nil {
				t.Fatalf("%s: %v", pair, err)
			}
			if !a.MappingComplete() {
				t.Fatalf("%s: %s", pair, a.MappingSummary())
			}
			svg, err := a.SVG()
			if err != nil {
				t.Fatalf("%s: %v", pair, err)
			}
			if n := strings.Count(svg, `class="node">`); n != a.Nodes() {
				t.Fatalf("%s: SVG has %d nodes, graph has %d", pair, n, a.Nodes())
			}
			record(pair, "pair-elision", svg)

			a.Recolor(WithColoring(ColorGradient))
			if svg, err = a.SVG(); err != nil {
				t.Fatalf("%s: %v", pair, err)
			}
			record(pair, "gradient", svg)

			now := time.Unix(0, 0)
			for i := 0; i < 100; i++ {
				if _, ok := a.Replay().Step(now); !ok {
					break
				}
				now = now.Add(time.Millisecond)
			}
			a.FlushReplay(now.Add(time.Minute))
			if svg, err = a.sess.RenderSVG(); err != nil {
				t.Fatalf("%s: %v", pair, err)
			}
			record(pair, "post-replay", svg)
		}
	}
	path := filepath.Join("testdata", "offline_svg.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
