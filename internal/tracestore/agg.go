package tracestore

import (
	"fmt"
	"sort"

	"stethoscope/internal/core"
	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// This file is the aggregation query layer over the stored history:
// top-N slowest runs, per-module/per-operator time rollups, utilization
// summaries, and the cross-run diff of two executions of the same SQL.

// TopN returns the n slowest successfully completed runs, slowest
// first. n <= 0 returns all of them.
func (s *Store) TopN(n int) []RunInfo {
	runs := s.Runs()
	ok := runs[:0]
	for _, r := range runs {
		if r.OK() {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].ElapsedUs != ok[j].ElapsedUs {
			return ok[i].ElapsedUs > ok[j].ElapsedUs
		}
		return ok[i].ID < ok[j].ID
	})
	if n > 0 && n < len(ok) {
		ok = ok[:n]
	}
	return append([]RunInfo(nil), ok...)
}

// AggStat is one row of a time rollup: a MAL module or operator with
// its call count, busy time, data volume, and share of the total.
type AggStat struct {
	Name   string
	Calls  int
	BusyUs int64
	Reads  int64
	Writes int64
	// Share is the fraction of the rollup's total busy time, 0..1.
	Share float64
}

// rollup aggregates done events of the selected runs by a key function.
// ids empty selects every indexed run.
func (s *Store) rollup(key func(stmt string) string, ids []uint64) ([]AggStat, error) {
	if len(ids) == 0 {
		for _, r := range s.Runs() {
			ids = append(ids, r.ID)
		}
	}
	byKey := map[string]*AggStat{}
	var total int64
	for _, id := range ids {
		evs, err := s.Events(id)
		if err != nil {
			return nil, err
		}
		for i := range evs {
			e := &evs[i]
			if e.State != profiler.StateDone {
				continue
			}
			k := key(e.Stmt)
			st, ok := byKey[k]
			if !ok {
				st = &AggStat{Name: k}
				byKey[k] = st
			}
			st.Calls++
			st.BusyUs += e.DurUs
			st.Reads += e.Reads
			st.Writes += e.Writes
			total += e.DurUs
		}
	}
	out := make([]AggStat, 0, len(byKey))
	for _, st := range byKey {
		if total > 0 {
			st.Share = float64(st.BusyUs) / float64(total)
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyUs != out[j].BusyUs {
			return out[i].BusyUs > out[j].BusyUs
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// ModuleRollup aggregates busy time per MAL module across the given
// runs (all runs when ids is empty), busiest first.
func (s *Store) ModuleRollup(ids ...uint64) ([]AggStat, error) {
	return s.rollup(profiler.ModuleOf, ids)
}

// OperatorRollup aggregates busy time per MAL operator
// ("module.function") across the given runs, busiest first.
func (s *Store) OperatorRollup(ids ...uint64) ([]AggStat, error) {
	return s.rollup(callOf, ids)
}

// Utilization summarizes a stored run's multi-core usage through the
// same analysis the live path uses.
func (s *Store) Utilization(id uint64) (core.Utilization, error) {
	evs, err := s.Events(id)
	if err != nil {
		return core.Utilization{}, err
	}
	return core.Utilize(trace.FromEventsOwned(evs)), nil
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

// Diff compares two recorded runs of the same SQL.
type Diff struct {
	A, B RunInfo
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

// Compare diffs two recorded runs of the same SQL: per-instruction and
// per-module busy-time deltas plus the wall-time regression verdict.
// Comparing runs of different SQL is an error.
func (s *Store) Compare(aID, bID uint64) (*Diff, error) {
	a, ok := s.Run(aID)
	if !ok {
		return nil, fmt.Errorf("tracestore: %s: unknown run %d", s.opts.Dir, aID)
	}
	b, ok := s.Run(bID)
	if !ok {
		return nil, fmt.Errorf("tracestore: %s: unknown run %d", s.opts.Dir, bID)
	}
	if a.SQL != b.SQL {
		return nil, fmt.Errorf("tracestore: %s: runs %d and %d executed different SQL (%q vs %q)", s.opts.Dir, aID, bID, a.SQL, b.SQL)
	}
	d := &Diff{A: a, B: b, ElapsedDeltaUs: b.ElapsedUs - a.ElapsedUs}
	if a.OK() && b.OK() && a.ElapsedUs > 0 {
		d.Regression = float64(b.ElapsedUs) >= 1.1*float64(a.ElapsedUs)
	}
	perPC := map[int]*InstrDelta{}
	perMod := map[string]*ModuleDelta{}
	fold := func(id uint64, side func(*InstrDelta) *int64, mside func(*ModuleDelta) *int64) error {
		evs, err := s.Events(id)
		if err != nil {
			return err
		}
		for i := range evs {
			e := &evs[i]
			if e.State != profiler.StateDone {
				continue
			}
			pd, ok := perPC[e.PC]
			if !ok {
				pd = &InstrDelta{PC: e.PC}
				perPC[e.PC] = pd
			}
			if pd.Stmt == "" {
				pd.Stmt = e.Stmt
			}
			*side(pd) += e.DurUs
			m := profiler.ModuleOf(e.Stmt)
			md, ok := perMod[m]
			if !ok {
				md = &ModuleDelta{Module: m}
				perMod[m] = md
			}
			*mside(md) += e.DurUs
		}
		return nil
	}
	if err := fold(aID,
		func(d *InstrDelta) *int64 { return &d.AUs },
		func(d *ModuleDelta) *int64 { return &d.AUs }); err != nil {
		return nil, err
	}
	if err := fold(bID,
		func(d *InstrDelta) *int64 { return &d.BUs },
		func(d *ModuleDelta) *int64 { return &d.BUs }); err != nil {
		return nil, err
	}
	for _, pd := range perPC {
		pd.DeltaUs = pd.BUs - pd.AUs
		d.Instrs = append(d.Instrs, *pd)
	}
	for _, md := range perMod {
		md.DeltaUs = md.BUs - md.AUs
		d.Modules = append(d.Modules, *md)
	}
	sort.Slice(d.Instrs, func(i, j int) bool {
		ai, aj := abs64(d.Instrs[i].DeltaUs), abs64(d.Instrs[j].DeltaUs)
		if ai != aj {
			return ai > aj
		}
		return d.Instrs[i].PC < d.Instrs[j].PC
	})
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
