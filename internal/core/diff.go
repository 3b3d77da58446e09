package core

import (
	"fmt"
	"sort"

	"stethoscope/internal/profiler"
	"stethoscope/internal/tracestore"
)

// The cross-run diff: two executions of the same SQL compared through
// the same folds that analyse one run — the per-instruction fold behind
// TopCostly and the module rollup behind ModuleBreakdown.

// DiffRun identifies one side of a RunDiff.
type DiffRun struct {
	ID        uint64
	SQL       string
	ElapsedUs int64
	// OK reports whether the run completed without an execution error;
	// only a slowdown between two OK runs is a regression.
	OK bool
}

// InstrDelta is one instruction's cost difference between two runs.
type InstrDelta struct {
	PC      int
	Stmt    string
	AUs     int64 // busy time in run A
	BUs     int64 // busy time in run B
	DeltaUs int64 // BUs - AUs
}

// ModuleDelta is one module's cost difference between two runs.
type ModuleDelta struct {
	Module  string
	AUs     int64
	BUs     int64
	DeltaUs int64
}

// RunDiff compares two runs of the same SQL.
type RunDiff struct {
	A, B DiffRun
	// ElapsedDeltaUs is B's wall time minus A's.
	ElapsedDeltaUs int64
	// Regression reports whether B is at least 10% slower than A — the
	// cross-run regression signal.
	Regression bool
	// Instrs lists per-instruction busy-time deltas, largest absolute
	// delta first.
	Instrs []InstrDelta
	// Modules lists per-module busy-time deltas, largest absolute delta
	// first.
	Modules []ModuleDelta
}

// DiffStored loads two recorded runs from a trace store and diffs them.
func DiffStored(st *tracestore.Store, a, b uint64) (*RunDiff, error) {
	var runs [2]DiffRun
	var events [2][]profiler.Event
	for i, id := range []uint64{a, b} {
		info, _, evs, err := st.Load(id)
		if err != nil {
			return nil, err
		}
		runs[i] = DiffRun{ID: info.ID, SQL: info.SQL, ElapsedUs: info.ElapsedUs, OK: info.OK()}
		events[i] = evs
	}
	return Diff(runs[0], runs[1], events[0], events[1])
}

// Diff compares two runs of the same SQL from their traces:
// per-instruction and per-module busy-time deltas plus the wall-time
// regression verdict. Runs of different SQL are an error.
func Diff(a, b DiffRun, aEvents, bEvents []profiler.Event) (*RunDiff, error) {
	if a.SQL != b.SQL {
		return nil, fmt.Errorf("runs %d and %d executed different SQL (%q vs %q)", a.ID, b.ID, a.SQL, b.SQL)
	}
	d := &RunDiff{A: a, B: b, ElapsedDeltaUs: b.ElapsedUs - a.ElapsedUs}
	if a.OK && b.OK && a.ElapsedUs > 0 {
		d.Regression = float64(b.ElapsedUs) >= 1.1*float64(a.ElapsedUs)
	}

	perPC := map[int]*InstrDelta{}
	instrs := func(events []profiler.Event, us func(*InstrDelta) *int64) {
		for _, f := range foldPerPC(events) {
			in, ok := perPC[f.pc]
			if !ok {
				in = &InstrDelta{PC: f.pc}
				perPC[f.pc] = in
			}
			if in.Stmt == "" {
				in.Stmt = f.stmt
			}
			*us(in) = f.durUs
		}
	}
	instrs(aEvents, func(in *InstrDelta) *int64 { return &in.AUs })
	instrs(bEvents, func(in *InstrDelta) *int64 { return &in.BUs })
	for _, in := range perPC {
		in.DeltaUs = in.BUs - in.AUs
		d.Instrs = append(d.Instrs, *in)
	}
	sort.Slice(d.Instrs, func(i, j int) bool {
		ai, aj := abs64(d.Instrs[i].DeltaUs), abs64(d.Instrs[j].DeltaUs)
		if ai != aj {
			return ai > aj
		}
		return d.Instrs[i].PC < d.Instrs[j].PC
	})

	perMod := map[string]*ModuleDelta{}
	modules := func(events []profiler.Event, us func(*ModuleDelta) *int64) {
		r := NewRollup(profiler.ModuleOf)
		r.Add(events)
		for m, st := range r.byKey {
			md, ok := perMod[m]
			if !ok {
				md = &ModuleDelta{Module: m}
				perMod[m] = md
			}
			*us(md) = st.BusyUs
		}
	}
	modules(aEvents, func(md *ModuleDelta) *int64 { return &md.AUs })
	modules(bEvents, func(md *ModuleDelta) *int64 { return &md.BUs })
	for _, md := range perMod {
		md.DeltaUs = md.BUs - md.AUs
		d.Modules = append(d.Modules, *md)
	}
	sort.Slice(d.Modules, func(i, j int) bool {
		ai, aj := abs64(d.Modules[i].DeltaUs), abs64(d.Modules[j].DeltaUs)
		if ai != aj {
			return ai > aj
		}
		return d.Modules[i].Module < d.Modules[j].Module
	})
	return d, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
