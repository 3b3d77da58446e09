package mal

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Variable is a single-assignment MAL variable slot within a plan.
type Variable struct {
	Name string // display name, "X_<id>" by default
	Type Type
}

// Arg is an instruction operand: either a reference to a plan variable
// (Var >= 0) or an inline constant (Var == ConstArg).
type Arg struct {
	Var   int // variable index, or ConstArg for a constant
	Const Value
}

// ConstArg marks an Arg as carrying an inline constant rather than a
// variable reference.
const ConstArg = -1

// VarArg returns an Arg referencing variable id.
func VarArg(id int) Arg { return Arg{Var: id} }

// ConstOf returns an Arg carrying the constant v.
func ConstOf(v Value) Arg { return Arg{Var: ConstArg, Const: v} }

// IsConst reports whether the operand is an inline constant.
func (a Arg) IsConst() bool { return a.Var == ConstArg }

// Instr is one MAL statement: module.function applied to Args, assigning
// results to the variables in Rets. PC is the program counter, the
// instruction's position in the plan; the paper's trace-to-dot mapping is
// "pc=N maps to dot node nN".
type Instr struct {
	PC       int
	Module   string
	Function string
	Rets     []int
	Args     []Arg
}

// Name returns the qualified "module.function" name.
func (in *Instr) Name() string { return in.Module + "." + in.Function }

// Plan is a MAL program: an ordered instruction list over a shared
// single-assignment variable table. Plans are built by the compiler,
// rewritten by the optimizer, interpreted by the engine, and rendered by
// Stethoscope as a dataflow DAG.
type Plan struct {
	// Query is the source SQL text, carried for display purposes.
	Query  string
	Vars   []Variable
	Instrs []*Instr

	// Frags are the morsel fragments referenced by mat.morsel
	// instructions, indexed by fragment id. Fragments are immutable
	// once the compiler finishes; optimizer clones share them.
	Frags []*Fragment

	// stmts caches the rendered statement text per PC for the
	// execution hot path; see CachedStmt.
	stmtsOnce sync.Once
	stmts     []string

	// validateOnce memoizes Validate for finalized plans; see
	// ValidateCached.
	validateOnce sync.Once
	validateErr  error
}

// NewPlan returns an empty plan for the given source query text.
func NewPlan(query string) *Plan { return &Plan{Query: query} }

// Fragment is a per-morsel sub-plan: the instruction chain a morsel
// worker runs over one slice of the driver table (filter, project,
// hash-probe, partial aggregate) before the combine stage materializes.
// Fragments are referenced from the outer plan by a mat.morsel
// instruction carrying the fragment id as its first constant argument.
//
// A fragment's variable table is separate from the outer plan's.
// Params and Caps are fragment variable ids with no defining
// instruction — the morsel scheduler presets them before running the
// fragment's instructions: Params receive the current morsel's slice of
// each source column (in the morsel instruction's source-argument
// order), Caps receive whole outer values captured once per run (hash
// tables, packed build sides). Outs are the fragment variables exported
// per morsel; the scheduler packs them across morsels, in morsel order,
// into the morsel instruction's return variables.
type Fragment struct {
	Plan   *Plan
	Params []int
	Caps   []int
	Outs   []int
}

// NewVar appends a fresh variable of type t and returns its index. The
// variable is named X_<index> in MAL notation.
func (p *Plan) NewVar(t Type) int {
	id := len(p.Vars)
	p.Vars = append(p.Vars, Variable{Name: fmt.Sprintf("X_%d", id), Type: t})
	return id
}

// VarType returns the declared type of variable id.
func (p *Plan) VarType(id int) Type {
	if id < 0 || id >= len(p.Vars) {
		return TVoid
	}
	return p.Vars[id].Type
}

// VarName returns the display name of variable id.
func (p *Plan) VarName(id int) string {
	if id < 0 || id >= len(p.Vars) {
		return fmt.Sprintf("X_?%d", id)
	}
	return p.Vars[id].Name
}

// Emit appends an instruction and returns it. PC is assigned to the
// instruction's position.
func (p *Plan) Emit(module, function string, rets []int, args ...Arg) *Instr {
	in := &Instr{
		PC:       len(p.Instrs),
		Module:   module,
		Function: function,
		Rets:     rets,
		Args:     args,
	}
	p.Instrs = append(p.Instrs, in)
	return in
}

// Emit1 appends an instruction with a single fresh result variable of type
// t and returns the new variable's index.
func (p *Plan) Emit1(module, function string, t Type, args ...Arg) int {
	ret := p.NewVar(t)
	p.Emit(module, function, []int{ret}, args...)
	return ret
}

// Emit0 appends a result-less (void) instruction.
func (p *Plan) Emit0(module, function string, args ...Arg) *Instr {
	return p.Emit(module, function, nil, args...)
}

// Renumber reassigns PCs to match instruction positions. Optimizer passes
// that delete or reorder instructions must call this before the plan is
// executed or exported to dot, because Stethoscope's pc-to-node mapping
// relies on PC == position.
func (p *Plan) Renumber() {
	for i, in := range p.Instrs {
		in.PC = i
	}
}

// DefSites returns, for every variable, the PC of the instruction that
// defines it, or -1 if the variable is never assigned (e.g. only used as a
// constant placeholder).
func (p *Plan) DefSites() []int {
	def := make([]int, len(p.Vars))
	for i := range def {
		def[i] = -1
	}
	for _, in := range p.Instrs {
		for _, r := range in.Rets {
			if r >= 0 && r < len(def) && def[r] == -1 {
				def[r] = in.PC
			}
		}
	}
	return def
}

// Deps returns, per instruction, the PCs of the instructions whose results
// it consumes — the dataflow edges of the DAG Stethoscope draws. The
// result is indexed by PC and each dependency list is sorted ascending with
// duplicates removed.
func (p *Plan) Deps() [][]int {
	def := p.DefSites()
	deps := make([][]int, len(p.Instrs))
	for i, in := range p.Instrs {
		seen := map[int]bool{}
		for _, a := range in.Args {
			if a.IsConst() {
				continue
			}
			d := -1
			if a.Var >= 0 && a.Var < len(def) {
				d = def[a.Var]
			}
			if d >= 0 && d != in.PC && !seen[d] {
				seen[d] = true
				deps[i] = append(deps[i], d)
			}
		}
		slices.Sort(deps[i])
	}
	return deps
}

// Uses returns the transpose of Deps: per instruction, the PCs of
// instructions that consume one of its results.
func (p *Plan) Uses() [][]int {
	deps := p.Deps()
	uses := make([][]int, len(p.Instrs))
	for pc, ds := range deps {
		for _, d := range ds {
			uses[d] = append(uses[d], pc)
		}
	}
	return uses
}

// Validate checks plan well-formedness: every argument variable is defined
// by an earlier instruction, every variable is assigned at most once
// (single assignment), and variable indices are in range.
func (p *Plan) Validate() error {
	assigned := make([]bool, len(p.Vars))
	for i, in := range p.Instrs {
		if in.PC != i {
			return fmt.Errorf("mal: instruction %d has pc=%d; call Renumber", i, in.PC)
		}
		for _, a := range in.Args {
			if a.IsConst() {
				continue
			}
			if a.Var < 0 || a.Var >= len(p.Vars) {
				return fmt.Errorf("mal: pc=%d %s: argument variable %d out of range", i, in.Name(), a.Var)
			}
			if !assigned[a.Var] {
				return fmt.Errorf("mal: pc=%d %s: variable %s used before assignment", i, in.Name(), p.VarName(a.Var))
			}
		}
		for _, r := range in.Rets {
			if r < 0 || r >= len(p.Vars) {
				return fmt.Errorf("mal: pc=%d %s: result variable %d out of range", i, in.Name(), r)
			}
			if assigned[r] {
				return fmt.Errorf("mal: pc=%d %s: variable %s assigned twice", i, in.Name(), p.VarName(r))
			}
			assigned[r] = true
		}
	}
	return nil
}

// StmtString renders instruction in as a single MAL statement line, e.g.
//
//	X_3:bat[:oid] := algebra.select(X_1, 1);
//
// This string is what the profiler places in the trace "stmt" field and
// what the dot exporter places in node labels (paper §3.3).
func (p *Plan) StmtString(in *Instr) string {
	var b strings.Builder
	switch len(in.Rets) {
	case 0:
	case 1:
		r := in.Rets[0]
		fmt.Fprintf(&b, "%s:%s := ", p.VarName(r), p.VarType(r))
	default:
		b.WriteByte('(')
		for i, r := range in.Rets {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s:%s", p.VarName(r), p.VarType(r))
		}
		b.WriteString(") := ")
	}
	b.WriteString(in.Module)
	b.WriteByte('.')
	b.WriteString(in.Function)
	b.WriteByte('(')
	for i, a := range in.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.IsConst() {
			b.WriteString(a.Const.String())
		} else {
			b.WriteString(p.VarName(a.Var))
		}
	}
	b.WriteString(");")
	return b.String()
}

// ValidateCached memoizes Validate. Like CachedStmt it is for
// finalized plans only: the engine validates every execution, and
// re-walking an immutable cached plan on each of them is pure hot-path
// overhead. Rewriting a plan after the first call would serve a stale
// verdict. Safe for concurrent use.
func (p *Plan) ValidateCached() error {
	p.validateOnce.Do(func() { p.validateErr = p.Validate() })
	return p.validateErr
}

// CachedStmt returns StmtString(in) from a per-plan cache rendered once
// on first use. The profiler attaches the statement text to every
// start/done event, so re-executions of a cached plan would otherwise
// re-render every instruction on every run; with the cache the text is
// built once per plan lifetime. Only call this on finalized plans (the
// engine does, post-Validate): rewriting a plan after the first
// CachedStmt call would serve stale text. Safe for concurrent use.
func (p *Plan) CachedStmt(in *Instr) string {
	p.stmtsOnce.Do(func() {
		s := make([]string, len(p.Instrs))
		for i, instr := range p.Instrs {
			s[i] = p.StmtString(instr)
		}
		p.stmts = s
	})
	if in.PC >= 0 && in.PC < len(p.stmts) {
		return p.stmts[in.PC]
	}
	return p.StmtString(in)
}

// String renders the whole plan as a MAL listing wrapped in a
// function user.main() block, matching the paper's Figure 1 presentation.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("function user.main();\n")
	if p.Query != "" {
		fmt.Fprintf(&b, "# %s\n", p.Query)
	}
	for _, in := range p.Instrs {
		b.WriteString("    ")
		b.WriteString(p.StmtString(in))
		b.WriteByte('\n')
	}
	b.WriteString("end user.main;\n")
	for id, f := range p.Frags {
		fmt.Fprintf(&b, "fragment %d (params=%d, caps=%d, outs=%d);\n",
			id, len(f.Params), len(f.Caps), len(f.Outs))
		for _, in := range f.Plan.Instrs {
			b.WriteString("    ")
			b.WriteString(f.Plan.StmtString(in))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "end fragment %d;\n", id)
	}
	return b.String()
}

// Clone returns a deep copy of the plan. Optimizer passes operate on
// clones so the unoptimized plan remains available for side-by-side
// display.
func (p *Plan) Clone() *Plan {
	q := &Plan{Query: p.Query, Vars: append([]Variable(nil), p.Vars...)}
	q.Frags = append([]*Fragment(nil), p.Frags...)
	q.Instrs = make([]*Instr, len(p.Instrs))
	for i, in := range p.Instrs {
		cp := &Instr{
			PC:       in.PC,
			Module:   in.Module,
			Function: in.Function,
			Rets:     append([]int(nil), in.Rets...),
			Args:     append([]Arg(nil), in.Args...),
		}
		q.Instrs[i] = cp
	}
	return q
}
