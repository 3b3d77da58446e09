package mal

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unsafe"
)

// Variable is a single-assignment MAL variable slot within a plan. Its
// display name is derived from its id (VarName), so the slot holds only
// the type.
type Variable struct {
	Type Type
}

// Arg is an instruction operand, an integer the way MonetDB's MAL block
// stores operands as indexes into its symbol table: a variable id
// (>= 0), or the one's complement of an index into the plan's constant
// table (Plan.Consts). Plan.ConstOf builds constant operands.
type Arg int32

// VarArg returns an Arg referencing variable id.
func VarArg(id int) Arg { return Arg(id) }

// IsConst reports whether the operand is a constant.
func (a Arg) IsConst() bool { return a < 0 }

// Var returns the variable id of a variable operand.
func (a Arg) Var() int { return int(a) }

// Instr is one MAL statement: the opcode module.function applied to
// Args, assigning results to the variables in Rets. PC is the program
// counter, the instruction's position in the plan; the paper's
// trace-to-dot mapping is "pc=N maps to dot node nN".
type Instr struct {
	PC   int
	Op   *Opcode
	Rets []int
	Args []Arg
}

// Module returns the instruction's module, e.g. "algebra".
func (in *Instr) Module() string { return in.Op.Module() }

// Function returns the instruction's function, e.g. "thetaselect".
func (in *Instr) Function() string { return in.Op.Function() }

// Name returns the qualified "module.function" name.
func (in *Instr) Name() string { return in.Op.Name() }

// Plan is a MAL program: an ordered instruction list over a shared
// single-assignment variable table and a constant table. Plans are built
// by the compiler, rewritten by the optimizer, interpreted by the
// engine, and rendered by Stethoscope as a dataflow DAG.
type Plan struct {
	// Query is the source SQL text, carried for display purposes.
	Query  string
	Vars   []Variable
	Consts []Value
	Instrs []*Instr

	// Frags are the morsel fragments referenced by mat.morsel
	// instructions, indexed by fragment id. Fragments are immutable
	// once the compiler finishes; optimizer clones share them.
	Frags []*Fragment

	// constIdx deduplicates ConstOf; built lazily, so clones start
	// without one.
	constIdx map[constKey]Arg

	// stmts memoizes the rendered statement text for the execution hot
	// path; see CachedStmt. memoBytes is its size and the read counts'
	// (Readers) for Bytes, which may run while either is built.
	stmtsOnce sync.Once
	stmts     *stmtMemo
	memoMu    sync.Mutex
	memoBytes int64 // guarded by memoMu

	// validateOnce memoizes Validate for finalized plans; see
	// ValidateCached.
	validateOnce sync.Once
	validateErr  error

	// readers memoizes each variable's read count; see Readers. Its
	// size joins memoBytes once counted.
	readersOnce sync.Once
	readers     []int32
}

// constKey is a constant's exact literal: its type and payload, with a
// float compared by its bits. Go == on floats would merge 0.0 with -0.0
// and never match NaN.
type constKey struct {
	t Type
	i int64
	s string
}

// stmtMemo is every statement of a plan rendered into one string:
// statement pc is text[ends[pc-1]:ends[pc]], starting at 0 for pc 0.
type stmtMemo struct {
	text string
	ends []uint32
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
	if id > math.MaxInt32 {
		panic("mal: plan has more variables than an Arg can reference")
	}
	p.Vars = append(p.Vars, Variable{Type: t})
	return id
}

// VarType returns the declared type of variable id.
func (p *Plan) VarType(id int) Type {
	if id < 0 || id >= len(p.Vars) {
		return TVoid
	}
	return p.Vars[id].Type
}

// VarName returns the display name of variable id: X_<id>.
func (p *Plan) VarName(id int) string { return string(p.appendVarName(nil, id)) }

func (p *Plan) appendVarName(b []byte, id int) []byte {
	if id < 0 || id >= len(p.Vars) {
		b = append(b, "X_?"...)
	} else {
		b = append(b, "X_"...)
	}
	return strconv.AppendInt(b, int64(id), 10)
}

// ConstOf returns an operand referencing the constant v, appending v to
// the constant table unless an identical literal is already there.
func (p *Plan) ConstOf(v Value) Arg {
	k, dedup := v.literalKey()
	if dedup {
		if p.constIdx == nil {
			p.constIdx = make(map[constKey]Arg, len(p.Consts))
			for i, c := range p.Consts {
				if ck, ok := c.literalKey(); ok {
					if _, dup := p.constIdx[ck]; !dup {
						p.constIdx[ck] = Arg(^i)
					}
				}
			}
		}
		if a, ok := p.constIdx[k]; ok {
			return a
		}
	}
	if len(p.Consts) > math.MaxInt32 {
		panic("mal: plan has more constants than an Arg can reference")
	}
	a := Arg(^len(p.Consts))
	p.Consts = append(p.Consts, v)
	if dedup {
		p.constIdx[k] = a
	}
	return a
}

// Const returns the value of the constant operand a.
func (p *Plan) Const(a Arg) Value { return p.Consts[^a] }

// Emit appends an instruction and returns it. PC is assigned to the
// instruction's position.
func (p *Plan) Emit(module, function string, rets []int, args ...Arg) *Instr {
	in := &Instr{
		PC:   len(p.Instrs),
		Op:   OpOf(module, function),
		Rets: rets,
		Args: args,
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
		var ds []int
		for _, a := range in.Args {
			if a.IsConst() || a.Var() >= len(def) {
				continue
			}
			if d := def[a.Var()]; d >= 0 && d != in.PC {
				ds = append(ds, d)
			}
		}
		slices.Sort(ds)
		deps[i] = slices.Clip(slices.Compact(ds))
	}
	return deps
}

// Validate checks plan well-formedness: every argument variable is defined
// by an earlier instruction, every constant operand is in the constant
// table, every variable is assigned at most once (single assignment), and
// variable indices are in range.
func (p *Plan) Validate() error {
	assigned := make([]bool, len(p.Vars))
	for i, in := range p.Instrs {
		if in.PC != i {
			return fmt.Errorf("mal: instruction %d has pc=%d; call Renumber", i, in.PC)
		}
		for _, a := range in.Args {
			if a.IsConst() {
				if int(^a) >= len(p.Consts) {
					return fmt.Errorf("mal: pc=%d %s: constant %d out of range", i, in.Name(), int(^a))
				}
				continue
			}
			if a.Var() >= len(p.Vars) {
				return fmt.Errorf("mal: pc=%d %s: argument variable %d out of range", i, in.Name(), a.Var())
			}
			if !assigned[a.Var()] {
				return fmt.Errorf("mal: pc=%d %s: variable %s used before assignment", i, in.Name(), p.VarName(a.Var()))
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
func (p *Plan) StmtString(in *Instr) string { return string(p.appendStmt(nil, in)) }

func (p *Plan) appendStmt(b []byte, in *Instr) []byte {
	switch len(in.Rets) {
	case 0:
	case 1:
		r := in.Rets[0]
		b = p.appendVarName(b, r)
		b = append(b, ':')
		b = append(b, p.VarType(r).String()...)
		b = append(b, " := "...)
	default:
		b = append(b, '(')
		for i, r := range in.Rets {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = p.appendVarName(b, r)
			b = append(b, ':')
			b = append(b, p.VarType(r).String()...)
		}
		b = append(b, ") := "...)
	}
	b = append(b, in.Name()...)
	b = append(b, '(')
	for i, a := range in.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		if a.IsConst() {
			b = p.Const(a).appendLiteral(b)
		} else {
			b = p.appendVarName(b, a.Var())
		}
	}
	return append(b, ");"...)
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

// Readers returns, per variable, how many operands read it across the
// plan: an instruction that names a variable twice reads it twice. The
// engine copies the counts into every run and releases a variable's
// value when its count reaches zero — at its last use — so a value read
// by nothing dies as soon as it is made. Memoized per plan like
// ValidateCached, for finalized plans only; the result is shared and
// must not be modified. Safe for concurrent use.
func (p *Plan) Readers() []int32 {
	p.readersOnce.Do(func() {
		r := make([]int32, len(p.Vars))
		for _, in := range p.Instrs {
			for _, a := range in.Args {
				if !a.IsConst() && a.Var() < len(r) {
					r[a.Var()]++
				}
			}
		}
		p.readers = r
		p.memoMu.Lock()
		p.memoBytes += int64(cap(r)) * int64(unsafe.Sizeof(int32(0)))
		p.memoMu.Unlock()
	})
	return p.readers
}

// CachedStmt returns StmtString(in) from a per-plan memo rendered once
// on first use: one string holding every statement, which CachedStmt
// slices. The profiler attaches the statement text to every start/done
// event, so re-executions of a cached plan would otherwise re-render
// every instruction on every run; with the memo the text is built once
// per plan lifetime. Only call this on finalized plans (the engine does,
// post-Validate): rewriting a plan after the first CachedStmt call would
// serve stale text. Safe for concurrent use.
func (p *Plan) CachedStmt(in *Instr) string {
	p.stmtsOnce.Do(p.renderStmts)
	m := p.stmts
	if pc := in.PC; pc >= 0 && pc < len(m.ends) {
		start := uint32(0)
		if pc > 0 {
			start = m.ends[pc-1]
		}
		return m.text[start:m.ends[pc]]
	}
	return p.StmtString(in)
}

func (p *Plan) renderStmts() {
	var b []byte
	ends := make([]uint32, len(p.Instrs))
	for i, in := range p.Instrs {
		b = p.appendStmt(b, in)
		ends[i] = uint32(len(b))
	}
	p.stmts = &stmtMemo{text: string(b), ends: ends}
	p.memoMu.Lock()
	p.memoBytes += int64(unsafe.Sizeof(*p.stmts)) + int64(len(b)) + int64(cap(ends))*int64(unsafe.Sizeof(uint32(0)))
	p.memoMu.Unlock()
}

// String renders the whole plan as a MAL listing wrapped in a
// function user.main() block, matching the paper's Figure 1 presentation.
func (p *Plan) String() string {
	var b []byte
	b = append(b, "function user.main();\n"...)
	if p.Query != "" {
		b = append(b, "# "...)
		b = append(b, p.Query...)
		b = append(b, '\n')
	}
	for _, in := range p.Instrs {
		b = append(b, "    "...)
		b = append(p.appendStmt(b, in), '\n')
	}
	b = append(b, "end user.main;\n"...)
	for id, f := range p.Frags {
		b = fmt.Appendf(b, "fragment %d (params=%d, caps=%d, outs=%d);\n",
			id, len(f.Params), len(f.Caps), len(f.Outs))
		for _, in := range f.Plan.Instrs {
			b = append(b, "    "...)
			b = append(f.Plan.appendStmt(b, in), '\n')
		}
		b = fmt.Appendf(b, "end fragment %d;\n", id)
	}
	return string(b)
}

// Clone returns a deep copy of the plan in exact-size storage: its
// instructions, their operands and their results each fill one slab,
// and the variable and constant tables are copied to their length.
// Optimizer passes operate on clones so the unoptimized plan remains
// available for side-by-side display, and the optimizer's result is a
// clone of what the passes kept. Fragments are immutable and shared.
func (p *Plan) Clone() *Plan {
	nArgs, nRets := 0, 0
	for _, in := range p.Instrs {
		nArgs += len(in.Args)
		nRets += len(in.Rets)
	}
	q := &Plan{
		Query:  p.Query,
		Vars:   slices.Clip(slices.Clone(p.Vars)),
		Consts: slices.Clip(slices.Clone(p.Consts)),
		Instrs: make([]*Instr, len(p.Instrs)),
		Frags:  slices.Clip(slices.Clone(p.Frags)),
	}
	instrs := make([]Instr, len(p.Instrs))
	args := make([]Arg, 0, nArgs)
	rets := make([]int, 0, nRets)
	for i, in := range p.Instrs {
		cp := &instrs[i]
		cp.PC, cp.Op = in.PC, in.Op
		n := len(args)
		args = append(args, in.Args...)
		cp.Args = args[n:len(args):len(args)]
		n = len(rets)
		rets = append(rets, in.Rets...)
		cp.Rets = rets[n:len(rets):len(rets)]
		q.Instrs[i] = cp
	}
	return q
}

// Bytes is the plan's resident size, computed by arithmetic the way
// storage.BAT.FootprintBytes is: the plan header, the variable and
// constant tables, every instruction with its operands and results, the
// fragments the plan holds and, once CachedStmt and Readers have built
// them, the statement memo and the read counts. Size-class rounding is
// not counted.
func (p *Plan) Bytes() int64 {
	n := int64(unsafe.Sizeof(*p)) +
		int64(cap(p.Vars))*int64(unsafe.Sizeof(Variable{})) +
		int64(cap(p.Consts))*int64(unsafe.Sizeof(Value{})) +
		int64(cap(p.Instrs))*int64(unsafe.Sizeof((*Instr)(nil))) +
		int64(len(p.constIdx))*int64(unsafe.Sizeof(constKey{})+unsafe.Sizeof(Arg(0)))
	for _, c := range p.Consts {
		n += int64(len(c.Str))
	}
	for _, in := range p.Instrs {
		n += int64(unsafe.Sizeof(*in)) + int64(cap(in.Args))*int64(unsafe.Sizeof(Arg(0))) +
			int64(cap(in.Rets))*int64(unsafe.Sizeof(int(0)))
	}
	for _, f := range p.Frags {
		n += int64(unsafe.Sizeof(*f)) + f.Plan.Bytes() +
			int64(cap(f.Params)+cap(f.Caps)+cap(f.Outs))*int64(unsafe.Sizeof(int(0)))
	}
	p.memoMu.Lock()
	n += p.memoBytes
	p.memoMu.Unlock()
	return n
}
