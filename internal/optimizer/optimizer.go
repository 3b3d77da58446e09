// Package optimizer implements MAL-plan optimizer passes. In MonetDB, a
// pipeline of optimizers rewrites the MAL program the SQL compiler emits
// (paper §2: "optimizers work on the generated MAL plan to derive an
// optimized MAL plan"). This reproduction ships the passes the demo needs:
// common-subexpression elimination (the compiler's per-column lowering
// duplicates key-expression computations), dead-code elimination, and an
// alias-removal helper. Mitosis/mergetable partitioning is performed at
// lowering time by internal/compiler (Options.Partitions); see DESIGN.md.
package optimizer

import (
	"fmt"
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

// Default returns the standard pipeline: CSE, then mergetable folding
// (degenerate mitosis fragments the partitioned lowering leaves
// behind), then dead-code elimination (the first two passes create dead
// duplicates that DCE sweeps).
func Default() Pipeline {
	return Pipeline{Passes: []Pass{CSE{}, MatFold{}, DeadCode{}}}
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

// Run applies the pipeline to a clone of p and returns the optimized plan.
// The input plan is never mutated so Stethoscope can display both.
func (pl Pipeline) Run(p *mal.Plan) (*mal.Plan, Stats, error) {
	out := p.Clone()
	st := Stats{Before: len(p.Instrs), PerPass: map[string]int{}}
	for _, pass := range pl.Passes {
		n, err := pass.Run(out)
		if err != nil {
			return nil, st, fmt.Errorf("optimizer: pass %s: %w", pass.Name(), err)
		}
		st.PerPass[pass.Name()] += n
		out.Renumber()
		if err := out.Validate(); err != nil {
			return nil, st, fmt.Errorf("optimizer: pass %s broke the plan: %w", pass.Name(), err)
		}
	}
	st.After = len(out.Instrs)
	return out, st, nil
}

// sideEffect reports whether an instruction must be preserved even when
// its results are unused: result-set plumbing, logging, profiling.
func sideEffect(in *mal.Instr) bool {
	switch in.Module {
	case "sql":
		return in.Function != "bind" // bind is a pure catalog read
	case "querylog", "profiler", "language", "transaction":
		return true
	}
	return false
}

// pure reports whether an instruction's results depend only on its
// arguments, making it a CSE candidate. sql.bind is pure within a plan
// (the catalog is immutable during execution).
func pure(in *mal.Instr) bool {
	switch in.Module {
	case "algebra", "batcalc", "group", "aggr", "mat", "calc", "bat":
		return true
	case "sql":
		return in.Function == "bind"
	}
	return false
}

// DeadCode removes side-effect-free instructions whose results are never
// consumed, iterating to a fixpoint.
type DeadCode struct{}

// Name implements Pass.
func (DeadCode) Name() string { return "deadcode" }

// Run implements Pass.
func (DeadCode) Run(p *mal.Plan) (int, error) {
	removed := 0
	for {
		p.Renumber()
		uses := p.Uses()
		keep := p.Instrs[:0]
		n := 0
		for i, in := range p.Instrs {
			if sideEffect(in) || len(uses[i]) > 0 {
				keep = append(keep, in)
				continue
			}
			n++
		}
		if n == 0 {
			break
		}
		removed += n
		p.Instrs = keep
	}
	p.Renumber()
	return removed, nil
}

// CSE rewrites uses of duplicate pure computations to the first
// occurrence. The duplicates become dead and are left for DeadCode.
type CSE struct{}

// Name implements Pass.
func (CSE) Name() string { return "cse" }

// instrKey canonicalizes an instruction's identity for CSE matching.
func instrKey(p *mal.Plan, in *mal.Instr) string {
	var b strings.Builder
	b.WriteString(in.Name())
	for _, a := range in.Args {
		b.WriteByte('|')
		if a.IsConst() {
			b.WriteByte('#')
			b.WriteString(a.Const.Type.String())
			b.WriteByte(':')
			b.WriteString(a.Const.String())
		} else {
			fmt.Fprintf(&b, "v%d", a.Var)
		}
	}
	return b.String()
}

// Run implements Pass.
func (CSE) Run(p *mal.Plan) (int, error) {
	rewrites := 0
	// replacement[v] = canonical variable for v.
	replacement := map[int]int{}
	seen := map[string]*mal.Instr{}
	resolve := func(v int) int {
		for {
			r, ok := replacement[v]
			if !ok {
				return v
			}
			v = r
		}
	}
	for _, in := range p.Instrs {
		// Rewrite args through accumulated replacements first.
		for ai, a := range in.Args {
			if !a.IsConst() {
				if r := resolve(a.Var); r != a.Var {
					in.Args[ai] = mal.VarArg(r)
				}
			}
		}
		if !pure(in) {
			continue
		}
		key := instrKey(p, in)
		if prev, ok := seen[key]; ok && len(prev.Rets) == len(in.Rets) {
			for ri, r := range in.Rets {
				replacement[r] = prev.Rets[ri]
			}
			rewrites++
			continue
		}
		seen[key] = in
	}
	return rewrites, nil
}

// MatFold removes the one degenerate mitosis fragment the lowering can
// still emit: a mat.pack that reassembles every slice of one source in
// order is the source itself (a bare projection slices a scan and the
// limit or result set above it packs the untouched slices straight
// back). Uses are rewritten to the source; the dead pack and slices are
// left for DeadCode. Other degenerate shapes — a pack of one piece,
// mat.slice(v, 0, 1), a hashbuild probed once, a single-run mat.kmerge
// — cannot arise: the compiler fans out only when Partitions > 1, so
// every pack, probe set and merge has at least two pieces.
type MatFold struct{}

// Name implements Pass.
func (MatFold) Name() string { return "matfold" }

// sliceOf decodes in as `mat.slice(src, p, k)`: slice p of k of the
// variable src, both positions integer constants.
func sliceOf(in *mal.Instr) (src int, p, k int64, ok bool) {
	if in == nil || in.Name() != "mat.slice" || len(in.Args) != 3 || in.Args[0].IsConst() {
		return 0, 0, 0, false
	}
	pa, ka := in.Args[1], in.Args[2]
	if !pa.IsConst() || !ka.IsConst() || pa.Const.Type != mal.TInt || ka.Const.Type != mal.TInt {
		return 0, 0, 0, false
	}
	return in.Args[0].Var, pa.Const.Int, ka.Const.Int, true
}

// Run implements Pass.
func (MatFold) Run(p *mal.Plan) (int, error) {
	folded := 0
	replacement := map[int]int{}
	// def maps a variable to its defining instruction, built as we walk
	// (single assignment: definitions precede uses).
	def := map[int]*mal.Instr{}
	for _, in := range p.Instrs {
		for ai, a := range in.Args {
			if !a.IsConst() {
				if r, ok := replacement[a.Var]; ok {
					in.Args[ai] = mal.VarArg(r)
				}
			}
		}
		for _, r := range in.Rets {
			def[r] = in
		}
		if in.Name() != "mat.pack" || len(in.Rets) != 1 {
			continue
		}
		// pack(slice(v,0,k), ..., slice(v,k-1,k)) is v.
		src := -1
		for i, a := range in.Args {
			var d *mal.Instr
			if !a.IsConst() {
				d = def[a.Var]
			}
			s, pi, k, ok := sliceOf(d)
			if !ok || pi != int64(i) || k != int64(len(in.Args)) || (i > 0 && s != src) {
				src = -1
				break
			}
			src = s
		}
		if src >= 0 {
			replacement[in.Rets[0]] = src
			folded++
		}
	}
	return folded, nil
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	var parts []string
	for name, n := range s.PerPass {
		parts = append(parts, fmt.Sprintf("%s:%d", name, n))
	}
	return fmt.Sprintf("optimizer: %d -> %d instructions (%s)", s.Before, s.After, strings.Join(parts, " "))
}
