package mal

import "slices"

// Administrative-instruction classification. The paper's future-work list
// (§6) includes "selective pruning of MAL plan to remove unimportant
// administrative instructions"; experiment E11 implements it. An
// instruction is administrative when it neither moves nor transforms data:
// bookkeeping around transactions, result-set plumbing, and language
// control.

// adminFuncs lists module.function pairs that are pure bookkeeping.
var adminFuncs = map[string]bool{
	"language.pass":      true,
	"language.dataflow":  true,
	"querylog.define":    true,
	"sql.mvc":            true,
	"sql.resultSet":      true,
	"sql.rsColumn":       true,
	"sql.exportResult":   true,
	"bat.new":            true,
	"profiler.start":     true,
	"profiler.stop":      true,
	"transaction.begin":  true,
	"transaction.commit": true,
}

// IsAdmin reports whether the instruction is administrative bookkeeping
// rather than a data-bearing operator.
func (in *Instr) IsAdmin() bool {
	if adminFuncs[in.Name()] {
		return true
	}
	// Module-wide admin namespaces.
	switch in.Module() {
	case "querylog", "transaction", "profiler":
		return true
	}
	return false
}

// Prune returns a copy of the plan with administrative instructions
// removed, except those whose results feed a surviving data instruction
// (removing a producer would break the dataflow DAG). PCs are renumbered;
// the mapping old-pc -> new-pc is returned so trace events can be remapped
// onto the pruned graph. p must be finalized: Prune reads its memoized
// Deps.
//
//stetho:ignore deadexport experiment E11 (admin-instruction pruning) is measured by the root and integration tests
func Prune(p *Plan) (*Plan, map[int]int) {
	keep := make([]bool, len(p.Instrs))
	for i, in := range p.Instrs {
		keep[i] = !in.IsAdmin()
	}
	// A pruned instruction whose result is consumed by a kept instruction
	// must itself be kept: iterate to fixpoint (bounded by plan length).
	deps := p.Deps()
	for changed := true; changed; {
		changed = false
		for i := range p.Instrs {
			if !keep[i] {
				continue
			}
			for _, d := range deps[i] {
				if !keep[d] {
					keep[d] = true
					changed = true
				}
			}
		}
	}

	q := &Plan{Query: p.Query, Vars: slices.Clone(p.Vars), Consts: slices.Clone(p.Consts)}
	remap := make(map[int]int)
	for i, in := range p.Instrs {
		if !keep[i] {
			continue
		}
		cp := &Instr{Op: in.Op, Rets: slices.Clone(in.Rets), Args: slices.Clone(in.Args)}
		remap[in.PC] = len(q.Instrs)
		q.Instrs = append(q.Instrs, cp)
	}
	q.Renumber()
	return q, remap
}
