package core

import (
	"testing"

	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
)

func ev(state profiler.State, pc int, seq int64) profiler.Event {
	return profiler.Event{Seq: seq, State: state, PC: pc}
}

// TestE5PairElisionPaperExample reproduces the paper's worked example
// verbatim (§4.2.1): buffer {start,1},{done,1},{start,2},{done,2},
// {start,3},{start,4} — "The graph nodes corresponding to first four
// statements will not be colored ... However, the graph node
// corresponding to the fifth instruction with pc=3 will be colored in
// RED."
func TestE5PairElisionPaperExample(t *testing.T) {
	buf := []profiler.Event{
		ev(profiler.StateStart, 1, 0),
		ev(profiler.StateDone, 1, 1),
		ev(profiler.StateStart, 2, 2),
		ev(profiler.StateDone, 2, 3),
		ev(profiler.StateStart, 3, 4),
		ev(profiler.StateStart, 4, 5),
	}
	c := PairElision(buf)
	if c[1] != ColorNone {
		t.Errorf("pc=1 colored %q, want uncolored", c[1])
	}
	if c[2] != ColorNone {
		t.Errorf("pc=2 colored %q, want uncolored", c[2])
	}
	if c[3] != ColorRed {
		t.Errorf("pc=3 colored %q, want RED", c[3])
	}
	// pc=4 is the tail start: its done may simply not have arrived.
	if c[4] != ColorNone {
		t.Errorf("pc=4 colored %q, want uncolored (indeterminate)", c[4])
	}
}

func TestPairElisionLateDoneIsGreen(t *testing.T) {
	// start,5 ... other events ... done,5: pc=5 ran long and finished.
	buf := []profiler.Event{
		ev(profiler.StateStart, 5, 0),
		ev(profiler.StateStart, 6, 1),
		ev(profiler.StateDone, 6, 2),
		ev(profiler.StateDone, 5, 3),
	}
	c := PairElision(buf)
	if c[5] != ColorGreen {
		t.Errorf("pc=5 = %q, want GREEN (late done)", c[5])
	}
	if c[6] != ColorNone {
		t.Errorf("pc=6 = %q, want uncolored (adjacent pair)", c[6])
	}
}

func TestPairElisionEmptyAndSingle(t *testing.T) {
	if c := PairElision(nil); len(c) != 0 {
		t.Errorf("empty buffer colored %v", c)
	}
	c := PairElision([]profiler.Event{ev(profiler.StateStart, 0, 0)})
	if len(c) != 0 {
		t.Errorf("lone tail start colored %v", c)
	}
	c = PairElision([]profiler.Event{ev(profiler.StateDone, 0, 0)})
	if c[0] != ColorGreen {
		t.Errorf("lone done = %q", c[0])
	}
}

func TestPairElisionAllFastPairs(t *testing.T) {
	var buf []profiler.Event
	for pc := 0; pc < 50; pc++ {
		buf = append(buf,
			ev(profiler.StateStart, pc, int64(2*pc)),
			ev(profiler.StateDone, pc, int64(2*pc+1)))
	}
	if c := PairElision(buf); len(c) != 0 {
		t.Errorf("fast trace colored %d nodes", len(c))
	}
}

func TestThresholdColoring(t *testing.T) {
	buf := []profiler.Event{
		{Seq: 0, State: profiler.StateStart, PC: 1, ClkUs: 0},
		{Seq: 1, State: profiler.StateDone, PC: 1, ClkUs: 50, DurUs: 50},
		{Seq: 2, State: profiler.StateStart, PC: 2, ClkUs: 60},
		{Seq: 3, State: profiler.StateDone, PC: 2, ClkUs: 5060, DurUs: 5000},
		{Seq: 4, State: profiler.StateStart, PC: 3, ClkUs: 100},
		// trace ends at clk 5060 with pc=3 still running (elapsed 4960).
	}
	c := Threshold(buf, 1000)
	if c[1] != ColorNone {
		t.Errorf("fast pc=1 = %q", c[1])
	}
	if c[2] != ColorGreen {
		t.Errorf("slow finished pc=2 = %q", c[2])
	}
	if c[3] != ColorRed {
		t.Errorf("long-running pc=3 = %q", c[3])
	}
	// Higher threshold hides the runner.
	c = Threshold(buf, 100000)
	if len(c) != 0 {
		t.Errorf("high threshold colored %v", c)
	}
}

func TestGradientColoring(t *testing.T) {
	buf := []profiler.Event{
		{Seq: 0, State: profiler.StateDone, PC: 1, DurUs: 100},
		{Seq: 1, State: profiler.StateDone, PC: 2, DurUs: 1000},
		{Seq: 2, State: profiler.StateDone, PC: 3, DurUs: 10},
		{Seq: 3, State: profiler.StateStart, PC: 4},
	}
	c, stops := Gradient(buf)
	if len(c) != 3 {
		t.Fatalf("colored %d nodes, want 3 (done only)", len(c))
	}
	if stops[0].PC != 2 || stops[len(stops)-1].PC != 3 {
		t.Errorf("legend order = %v", stops)
	}
	// The slowest is pure red.
	if string(c[2]) != "#ff2626" && string(c[2]) != "#ff2727" {
		// exact value depends on rounding; check red dominance instead
		hex := string(c[2])
		if hex[:3] != "#ff" {
			t.Errorf("slowest color = %s", hex)
		}
	}
	// Faster nodes are lighter (higher green/blue component).
	if string(c[3]) <= string(c[2]) {
		t.Errorf("fast %s not lighter than slow %s", c[3], c[2])
	}
}

// A coloring fills the node of each pc it names, through the graph's
// own pc-to-node link, and leaves every other node uncolored.
func TestColoringFills(t *testing.T) {
	g, err := dot.Parse(`digraph g { x; n9; n7; n3; n1 }`)
	if err != nil {
		t.Fatal(err)
	}
	fill := Coloring{3: ColorRed, 7: ColorGreen, 9: ColorNone, 42: ColorRed}.Fill(g)
	want := []string{"", "", string(ColorGreen), string(ColorRed), ""}
	for i, w := range want {
		if got := fill(i); got != w {
			t.Errorf("node %s fill %q, want %q", g.Nodes[i].ID, got, w)
		}
	}
}

// TestPairElisionRandomProperties checks invariants on random traces:
// (1) only pcs present in the buffer are colored; (2) a trace consisting
// solely of adjacent start/done pairs is never colored; (3) colors are
// only RED or GREEN.
func TestPairElisionRandomProperties(t *testing.T) {
	rnd := func(seed int64) func() int64 {
		s := uint64(seed)
		return func() int64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int64(s % 97)
		}
	}
	next := rnd(42)
	for trial := 0; trial < 50; trial++ {
		var buf []profiler.Event
		present := map[int]bool{}
		n := int(next()%40) + 1
		for i := 0; i < n; i++ {
			pc := int(next() % 20)
			st := profiler.StateStart
			if next()%2 == 0 {
				st = profiler.StateDone
			}
			buf = append(buf, profiler.Event{Seq: int64(i), State: st, PC: pc})
			present[pc] = true
		}
		c := PairElision(buf)
		for pc, color := range c {
			if !present[pc] {
				t.Fatalf("trial %d: colored absent pc %d", trial, pc)
			}
			if color != ColorRed && color != ColorGreen {
				t.Fatalf("trial %d: invalid color %q", trial, color)
			}
		}
	}
	// Purely paired traces stay uncolored regardless of pc sequence.
	next = rnd(7)
	for trial := 0; trial < 20; trial++ {
		var buf []profiler.Event
		for i := 0; i < int(next()%30)+1; i++ {
			pc := int(next() % 50)
			buf = append(buf,
				profiler.Event{Seq: int64(2 * i), State: profiler.StateStart, PC: pc},
				profiler.Event{Seq: int64(2*i + 1), State: profiler.StateDone, PC: pc})
		}
		if c := PairElision(buf); len(c) != 0 {
			t.Fatalf("trial %d: paired trace colored %v", trial, c)
		}
	}
}

// TestThresholdMonotonicity: raising the threshold can only shrink the
// colored set.
func TestThresholdMonotonicity(t *testing.T) {
	var buf []profiler.Event
	clk := int64(0)
	for i := 0; i < 30; i++ {
		dur := int64((i * 37) % 1000)
		buf = append(buf,
			profiler.Event{Seq: int64(2 * i), State: profiler.StateStart, PC: i, ClkUs: clk})
		clk += dur
		buf = append(buf,
			profiler.Event{Seq: int64(2*i + 1), State: profiler.StateDone, PC: i, ClkUs: clk, DurUs: dur})
	}
	prev := Threshold(buf, 0)
	for _, th := range []int64{100, 300, 500, 900, 2000} {
		cur := Threshold(buf, th)
		for pc := range cur {
			if _, ok := prev[pc]; !ok {
				t.Fatalf("threshold %d colored pc %d that lower threshold missed", th, pc)
			}
		}
		if len(cur) > len(prev) {
			t.Fatalf("threshold %d colored more (%d) than lower threshold (%d)", th, len(cur), len(prev))
		}
		prev = cur
	}
}
