package core

import (
	"fmt"
	"sort"
	"strings"

	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// Utilization summarizes how a query execution exploited the cores — the
// online demo's "multi-core utilization analysis exhibits degree of
// multi-threaded parallelization of MAL instructions".
type Utilization struct {
	// BusyUs is the summed instruction time per thread.
	BusyUs map[int]int64
	// SpanUs is the wall-clock span of the trace (first start to last
	// done).
	SpanUs int64
	// Parallelism is total busy time divided by span: ~1 for sequential
	// execution, approaching the worker count for well-parallelized
	// plans.
	Parallelism float64
	// Threads is the number of distinct executing threads.
	Threads int
}

// Utilize computes per-thread utilization from a trace.
func Utilize(s *trace.Store) Utilization {
	u := Utilization{BusyUs: map[int]int64{}}
	var minClk, maxClk int64
	minClk = 1<<63 - 1
	for _, e := range s.Events() {
		if e.ClkUs < minClk {
			minClk = e.ClkUs
		}
		if e.ClkUs > maxClk {
			maxClk = e.ClkUs
		}
		if e.State == profiler.StateDone {
			u.BusyUs[e.Thread] += e.DurUs
		}
	}
	if s.Len() > 0 {
		u.SpanUs = maxClk - minClk
	}
	u.Threads = len(u.BusyUs)
	var total int64
	for _, b := range u.BusyUs {
		total += b
	}
	if u.SpanUs > 0 {
		u.Parallelism = float64(total) / float64(u.SpanUs)
	} else if total > 0 {
		u.Parallelism = 1
	}
	return u
}

// SequentialAnomaly reports whether a trace that should have run
// multi-threaded executed (almost) sequentially — the case the paper
// reports uncovering: "sequential execution of a MAL plan where
// multithreaded execution was expected." expectedThreads is the worker
// count the plan was scheduled for.
func SequentialAnomaly(u Utilization, expectedThreads int) bool {
	if expectedThreads <= 1 {
		return false
	}
	return u.Threads <= 1
}

// String renders a compact utilization report.
func (u Utilization) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span=%dus threads=%d parallelism=%.2f\n", u.SpanUs, u.Threads, u.Parallelism)
	threads := make([]int, 0, len(u.BusyUs))
	for t := range u.BusyUs {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	for _, t := range threads {
		fmt.Fprintf(&b, "  thread %d: busy %dus\n", t, u.BusyUs[t])
	}
	return b.String()
}

// Cluster is one birds-eye bucket: a contiguous slice of the trace
// summarized by its dominant MAL module — "birds eye view of the entire
// trace, to understand the sequence of instruction execution clustering."
type Cluster struct {
	FromSeq, ToSeq int64
	Events         int
	BusyUs         int64
	// Module is the dominant module in the bucket (by done-event time).
	Module string
}

// BirdsEye splits the trace into n sequential buckets and summarizes
// each.
func BirdsEye(s *trace.Store, n int) []Cluster {
	if n <= 0 || s.Len() == 0 {
		return nil
	}
	evs := s.Events()
	if n > len(evs) {
		n = len(evs)
	}
	out := make([]Cluster, 0, n)
	for b := 0; b < n; b++ {
		lo := b * len(evs) / n
		hi := (b + 1) * len(evs) / n
		if lo == hi {
			continue
		}
		c := Cluster{FromSeq: evs[lo].Seq, ToSeq: evs[hi-1].Seq, Events: hi - lo}
		r := NewRollup(profiler.ModuleOf)
		r.Add(evs[lo:hi])
		c.BusyUs = r.total
		if rows := r.Rows(); len(rows) > 0 {
			c.Module = rows[0].Module
		}
		out = append(out, c)
	}
	return out
}

// CostlyInstr is one entry of the costly-instruction report.
type CostlyInstr struct {
	PC    int
	DurUs int64
	Stmt  string
}

// TopCostly returns the k slowest instructions — the core question the
// tool answers ("where time goes").
func TopCostly(s *trace.Store, k int) []CostlyInstr {
	folded := foldPerPC(s.Events())
	out := make([]CostlyInstr, len(folded))
	for i, f := range folded {
		out[i] = CostlyInstr{PC: f.pc, DurUs: f.durUs, Stmt: f.stmt}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurUs != out[j].DurUs {
			return out[i].DurUs > out[j].DurUs
		}
		return out[i].PC < out[j].PC
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// instrFold is one instruction's done events folded together.
type instrFold struct {
	pc                   int
	stmt                 string // of the first done event
	durUs, reads, writes int64
}

// foldPerPC is the per-instruction fold behind the costly list, the
// gradient, the data-flow profile and the run diff: a run's done events
// summed per pc, in order of each pc's first completion.
func foldPerPC(events []profiler.Event) []instrFold {
	idx := map[int]int{}
	var out []instrFold
	for i := range events {
		e := &events[i]
		if e.State != profiler.StateDone {
			continue
		}
		j, ok := idx[e.PC]
		if !ok {
			j = len(out)
			idx[e.PC] = j
			out = append(out, instrFold{pc: e.PC, stmt: e.Stmt})
		}
		out[j].durUs += e.DurUs
		out[j].reads += e.Reads
		out[j].writes += e.Writes
	}
	return out
}

// Tooltip renders the hover text for one instruction: statement,
// execution time and resource accounting — the "tool tip text display"
// of the demo.
func Tooltip(s *trace.Store, pc int) string {
	var evs []profiler.Event
	for _, e := range s.Events() {
		if e.PC == pc {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return fmt.Sprintf("pc=%d: no trace events", pc)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pc=%d %s", pc, evs[0].Stmt)
	for _, e := range evs {
		if e.State == profiler.StateDone {
			fmt.Fprintf(&b, "\n  done in %dus (thread %d, rss %dKB, reads %d, writes %d)",
				e.DurUs, e.Thread, e.RSSKB, e.Reads, e.Writes)
		}
	}
	if evs[len(evs)-1].State == profiler.StateStart {
		fmt.Fprintf(&b, "\n  still running (started at clk=%dus, thread %d)",
			evs[len(evs)-1].ClkUs, evs[len(evs)-1].Thread)
	}
	return b.String()
}
