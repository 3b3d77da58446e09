// Package optimizer implements MAL-plan optimizer passes. In MonetDB, a
// pipeline of optimizers rewrites the MAL program the SQL compiler emits
// (paper §2: "optimizers work on the generated MAL plan to derive an
// optimized MAL plan"). This reproduction ships the passes the demo needs:
// common-subexpression elimination (the compiler's per-column lowering
// duplicates key-expression computations) and dead-code elimination.
// Mitosis/mergetable partitioning is performed at lowering time by
// internal/compiler (Options.Partitions), which emits no degenerate
// slice/pack chain to fold back; see DESIGN.md.
package optimizer

import (
	"fmt"
	"slices"
	"strings"

	"stethoscope/internal/mal"
)

// Stats summarizes what a pipeline run changed.
type Stats struct {
	Before  int            // instruction count before
	After   int            // instruction count after
	PerPass map[string]int // instructions removed per pass
}

// Pass is one plan-to-plan rewrite. Passes receive a private clone and
// may mutate it freely; they report how many instructions they removed.
type Pass interface {
	Name() string
	Run(p *mal.Plan) (removed int, err error)
}

// Pipeline is an ordered pass list.
type Pipeline struct {
	Passes []Pass
}

// Default returns the standard pipeline: CSE, then dead-code
// elimination (CSE leaves dead duplicates that DCE sweeps).
func Default() Pipeline {
	return Pipeline{Passes: []Pass{CSE{}, DeadCode{}}}
}

// Spec names the pipeline canonically, e.g. "cse,deadcode" — the
// plan-cache key component describing which optimizer produced a plan.
func (pl Pipeline) Spec() string {
	names := make([]string, len(pl.Passes))
	for i, p := range pl.Passes {
		names[i] = strings.ToLower(p.Name())
	}
	return strings.Join(names, ",")
}

// Run applies the pipeline to a working clone of p and returns the
// optimized plan, packed: a clone of what the passes kept, so the result
// (the plan the cache holds) carries exact-size storage and none of the
// removed instructions. The input plan is never mutated so Stethoscope
// can display both.
func (pl Pipeline) Run(p *mal.Plan) (*mal.Plan, Stats, error) {
	work := p.Clone()
	st := Stats{Before: len(p.Instrs), PerPass: map[string]int{}}
	for _, pass := range pl.Passes {
		n, err := pass.Run(work)
		if err != nil {
			return nil, st, fmt.Errorf("optimizer: pass %s: %w", pass.Name(), err)
		}
		st.PerPass[pass.Name()] += n
		work.Renumber()
		if err := work.Validate(); err != nil {
			return nil, st, fmt.Errorf("optimizer: pass %s broke the plan: %w", pass.Name(), err)
		}
	}
	out := work.Clone()
	st.After = len(out.Instrs)
	return out, st, nil
}

// sideEffect reports whether an instruction must be preserved even when
// its results are unused: result-set plumbing, logging, profiling.
func sideEffect(in *mal.Instr) bool {
	switch in.Module() {
	case "sql":
		return in.Function() != "bind" // bind is a pure catalog read
	case "querylog", "profiler", "language", "transaction":
		return true
	}
	return false
}

// pure reports whether an instruction's results depend only on its
// arguments, making it a CSE candidate. sql.bind is pure within a plan
// (the catalog is immutable during execution).
func pure(in *mal.Instr) bool {
	switch in.Module() {
	case "algebra", "batcalc", "group", "aggr", "mat", "calc", "bat":
		return true
	case "sql":
		return in.Function() == "bind"
	}
	return false
}

// DeadCode removes side-effect-free instructions whose results are never
// consumed. A plan lists every definition before its uses, so one
// backward sweep reaches the fixpoint: an instruction is live when it has
// a side effect or a live instruction reads one of its results.
type DeadCode struct{}

// Name implements Pass.
func (DeadCode) Name() string { return "deadcode" }

// Run implements Pass.
func (DeadCode) Run(p *mal.Plan) (int, error) {
	read := make([]bool, len(p.Vars))
	live := make([]bool, len(p.Instrs))
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in := p.Instrs[i]
		live[i] = sideEffect(in)
		for _, r := range in.Rets {
			live[i] = live[i] || read[r]
		}
		if !live[i] {
			continue
		}
		for _, a := range in.Args {
			if !a.IsConst() {
				read[a.Var()] = true
			}
		}
	}
	keep := p.Instrs[:0]
	for i, in := range p.Instrs {
		if live[i] {
			keep = append(keep, in)
		}
	}
	removed := len(p.Instrs) - len(keep)
	clear(p.Instrs[len(keep):])
	p.Instrs = keep
	p.Renumber()
	return removed, nil
}

// CSE rewrites uses of duplicate pure computations to the first
// occurrence. The duplicates become dead and are left for DeadCode.
type CSE struct{}

// Name implements Pass.
func (CSE) Name() string { return "cse" }

// cseKey is an instruction's identity for CSE matching: its opcode and
// a hash of its operands. Operands are integers and equal constants
// share one table entry, so two computations are the same exactly when
// opcode and operands are equal.
type cseKey struct {
	op   *mal.Opcode
	args uint64
}

func argsHash(args []mal.Arg) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, a := range args {
		h = (h ^ uint64(uint32(a))) * prime
	}
	return h
}

// Run implements Pass.
func (CSE) Run(p *mal.Plan) (int, error) {
	rewrites := 0
	// canon[v] is the variable uses of v are rewritten to.
	canon := make([]int, len(p.Vars))
	for v := range canon {
		canon[v] = v
	}
	// seen maps a key to the first instruction computing it; operands
	// that collide in the hash move on to the next hash value.
	seen := make(map[cseKey]*mal.Instr, len(p.Instrs))
	for _, in := range p.Instrs {
		// Rewrite args through accumulated replacements first.
		for ai, a := range in.Args {
			if !a.IsConst() {
				in.Args[ai] = mal.VarArg(canon[a.Var()])
			}
		}
		if !pure(in) {
			continue
		}
		for k := (cseKey{in.Op, argsHash(in.Args)}); ; k.args++ {
			prev, ok := seen[k]
			if ok && !slices.Equal(prev.Args, in.Args) {
				continue
			}
			if ok && len(prev.Rets) == len(in.Rets) {
				for ri, r := range in.Rets {
					canon[r] = prev.Rets[ri]
				}
				rewrites++
			} else {
				seen[k] = in
			}
			break
		}
	}
	return rewrites, nil
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	var parts []string
	for name, n := range s.PerPass {
		parts = append(parts, fmt.Sprintf("%s:%d", name, n))
	}
	return fmt.Sprintf("optimizer: %d -> %d instructions (%s)", s.Before, s.After, strings.Join(parts, " "))
}
