package core

import (
	"fmt"
	"sort"
	"strings"

	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// This file implements the paper's future-work item (§6): "an analytic
// interface for micro analysis of trace" — structured breakdowns of where
// time, memory and data volume went, beyond the per-node coloring.

// ModuleStat is one row of a busy-time rollup: a MAL module — or, in
// an operator rollup, a "module.function" call — with its call count,
// busy time, data volume and share of the rollup's total.
type ModuleStat struct {
	// Module is the rollup key ("" for statements without one).
	Module string
	Calls  int
	BusyUs int64
	Reads  int64
	Writes int64
	// Share is the fraction of total busy time, 0..1.
	Share float64
}

// Rollup is the busy-time rollup: it folds the done events of one or
// more runs into one row per key(stmt). The module breakdown keys by
// profiler.ModuleOf, the operator rollup by profiler.CallOf.
type Rollup struct {
	key   func(stmt string) string
	byKey map[string]*ModuleStat
	total int64
}

// NewRollup starts an empty rollup keyed by key.
func NewRollup(key func(stmt string) string) *Rollup {
	return &Rollup{key: key, byKey: map[string]*ModuleStat{}}
}

// Add folds one run's events into the rollup.
func (r *Rollup) Add(events []profiler.Event) {
	for i := range events {
		e := &events[i]
		if e.State != profiler.StateDone {
			continue
		}
		k := r.key(e.Stmt)
		st, ok := r.byKey[k]
		if !ok {
			st = &ModuleStat{Module: k}
			r.byKey[k] = st
		}
		st.Calls++
		st.BusyUs += e.DurUs
		st.Reads += e.Reads
		st.Writes += e.Writes
		r.total += e.DurUs
	}
}

// Rows returns the rollup's rows, busiest first (ties by key).
func (r *Rollup) Rows() []ModuleStat {
	out := make([]ModuleStat, 0, len(r.byKey))
	for _, st := range r.byKey {
		row := *st
		if r.total > 0 {
			row.Share = float64(row.BusyUs) / float64(r.total)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyUs != out[j].BusyUs {
			return out[i].BusyUs > out[j].BusyUs
		}
		return out[i].Module < out[j].Module
	})
	return out
}

// ModuleBreakdown aggregates done events per MAL module, sorted by busy
// time descending.
func ModuleBreakdown(s *trace.Store) []ModuleStat {
	r := NewRollup(profiler.ModuleOf)
	r.Add(s.Events())
	return r.Rows()
}

// MemPoint is one sample of the memory timeline.
type MemPoint struct {
	ClkUs int64
	RSSKB int64 // cumulative rss of results produced up to this point
}

// MemoryTimeline accumulates the rss accounting of done events over
// time, bucketed into n samples — the "memory usage by operators" view
// of the offline demo.
func MemoryTimeline(s *trace.Store, n int) []MemPoint {
	if n <= 0 || s.Len() == 0 {
		return nil
	}
	// Collect (clk, rss) of done events in clk order.
	type pt struct{ clk, rss int64 }
	var pts []pt
	var maxClk int64
	for _, e := range s.Events() {
		if e.State == profiler.StateDone {
			pts = append(pts, pt{e.ClkUs, e.RSSKB})
		}
		if e.ClkUs > maxClk {
			maxClk = e.ClkUs
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].clk < pts[j].clk })
	out := make([]MemPoint, 0, n)
	var cum int64
	pi := 0
	for b := 1; b <= n; b++ {
		limit := maxClk * int64(b) / int64(n)
		for pi < len(pts) && pts[pi].clk <= limit {
			cum += pts[pi].rss
			pi++
		}
		out = append(out, MemPoint{ClkUs: limit, RSSKB: cum})
	}
	return out
}

// Segment is one instruction execution on the thread timeline.
type Segment struct {
	Thread int
	PC     int
	FromUs int64
	ToUs   int64
	Stmt   string
}

// ThreadTimeline pairs start/done events per pc into per-thread
// execution segments, ordered by start time within each thread — the
// data behind a Gantt view of "utilization distribution of threads".
func ThreadTimeline(s *trace.Store) map[int][]Segment {
	started := map[int]profiler.Event{}
	out := map[int][]Segment{}
	for _, e := range s.Events() {
		switch e.State {
		case profiler.StateStart:
			started[e.PC] = e
		case profiler.StateDone:
			st, ok := started[e.PC]
			if !ok {
				// Done without a start in window: synthesize from duration.
				st = profiler.Event{PC: e.PC, Thread: e.Thread, ClkUs: e.ClkUs - e.DurUs}
			}
			out[e.Thread] = append(out[e.Thread], Segment{
				Thread: e.Thread,
				PC:     e.PC,
				FromUs: st.ClkUs,
				ToUs:   e.ClkUs,
				Stmt:   e.Stmt,
			})
			delete(started, e.PC)
		}
	}
	for th := range out {
		segs := out[th]
		sort.Slice(segs, func(i, j int) bool { return segs[i].FromUs < segs[j].FromUs })
	}
	return out
}

// VariableFlow summarizes the data volume that flowed through an
// instruction: tuples in (reads) and out (writes).
type VariableFlow struct {
	PC     int
	Stmt   string
	Reads  int64
	Writes int64
	// Selectivity is writes/reads for filtering operators (0 when reads
	// is 0).
	Selectivity float64
}

// DataFlowProfile returns per-instruction tuple flow sorted by
// descending read volume, answering "which operators touch the most
// data".
func DataFlowProfile(s *trace.Store) []VariableFlow {
	folded := foldPerPC(s.Events())
	out := make([]VariableFlow, len(folded))
	for i, f := range folded {
		out[i] = VariableFlow{PC: f.pc, Stmt: f.stmt, Reads: f.reads, Writes: f.writes}
		if f.reads > 0 {
			out[i].Selectivity = float64(f.writes) / float64(f.reads)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reads != out[j].Reads {
			return out[i].Reads > out[j].Reads
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// MicroReport renders the full micro-analysis as text.
func MicroReport(s *trace.Store) string {
	var b strings.Builder
	b.WriteString("module breakdown:\n")
	for _, m := range ModuleBreakdown(s) {
		fmt.Fprintf(&b, "  %-10s %5d calls %10dus %5.1f%%  reads %d writes %d\n",
			m.Module, m.Calls, m.BusyUs, m.Share*100, m.Reads, m.Writes)
	}
	b.WriteString("top data flows:\n")
	flows := DataFlowProfile(s)
	if len(flows) > 5 {
		flows = flows[:5]
	}
	for _, f := range flows {
		fmt.Fprintf(&b, "  pc=%-5d reads %-10d writes %-10d sel %.3f\n", f.PC, f.Reads, f.Writes, f.Selectivity)
	}
	tl := ThreadTimeline(s)
	threads := make([]int, 0, len(tl))
	for th := range tl {
		threads = append(threads, th)
	}
	sort.Ints(threads)
	b.WriteString("thread timelines:\n")
	for _, th := range threads {
		fmt.Fprintf(&b, "  thread %d: %d segments\n", th, len(tl[th]))
	}
	return b.String()
}
