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

	// constIdx deduplicates ConstOf; built lazily, so clones start
	// without one. ownIdx does the same for OwnConstOf, whose slots
	// constIdx never holds.
	constIdx map[constKey]Arg
	ownIdx   map[constKey]Arg

	// body is the plan whose variables, instructions, validation, read
	// counts, schedule and statement memo an instance shares (see
	// Instance); nil for a plan that owns them.
	body *Plan

	// stmts memoizes the rendered statement text for the execution hot
	// path; see CachedStmt. memoBytes is its size, the read counts'
	// (Readers) and the schedule's (Schedule) for Bytes, which may run
	// while any of them is built.
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

	// sched memoizes the dataflow schedule; see Schedule.
	schedOnce sync.Once
	sched     *Schedule
}

// constKey is a constant's exact literal: its type and payload, with a
// float compared by its bits. Go == on floats would merge 0.0 with -0.0
// and never match NaN.
type constKey struct {
	t Type
	i int64
	s string
}

// stmtMemo is the statement text a plan renders itself, in one string:
// its k-th statement is text[ends[k-1]:ends[k]], starting at 0 for k 0,
// and at[pc] is the k of statement pc, or -1 where the plan's body
// renders it (see CachedStmt).
type stmtMemo struct {
	text string
	ends []uint32
	at   []int32
}

// NewPlan returns an empty plan for the given source query text.
func NewPlan(query string) *Plan { return &Plan{Query: query} }

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
func (p *Plan) ConstOf(v Value) Arg { return p.constIn(p.index(), v) }

// OwnConstOf is ConstOf over a second set of slots: it shares a slot
// only with an identical literal also added through OwnConstOf, and
// ConstOf never hands its slots out. The compiler puts what a plan
// template varies — the statement text and the source literals — there,
// so rewriting one of those slots (Instance) changes no constant the
// lowering made up. A clone, which rebuilds ConstOf's index from its
// table, no longer tells the two sets apart; the optimizer adds no
// constants.
func (p *Plan) OwnConstOf(v Value) Arg {
	p.index() // built before the slot exists, so it never holds one of these
	if p.ownIdx == nil {
		p.ownIdx = make(map[constKey]Arg)
	}
	return p.constIn(p.ownIdx, v)
}

// index returns ConstOf's deduplication index, building it from the
// constant table on first use.
func (p *Plan) index() map[constKey]Arg {
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
	return p.constIdx
}

func (p *Plan) constIn(idx map[constKey]Arg, v Value) Arg {
	k, dedup := v.literalKey()
	if dedup {
		if a, ok := idx[k]; ok {
			return a
		}
	}
	if len(p.Consts) > math.MaxInt32 {
		panic("mal: plan has more constants than an Arg can reference")
	}
	a := Arg(^len(p.Consts))
	p.Consts = append(p.Consts, v)
	if dedup {
		idx[k] = a
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
// duplicates removed. It is the memoized Schedule's, so like CachedStmt
// it is for finalized plans only, and it is shared: do not modify it.
func (p *Plan) Deps() [][]int { return p.Schedule().Deps }

// Schedule is a plan's dataflow schedule, what a multi-core run needs
// besides the instructions: the dependency edges, their transpose, and
// how many edges each instruction waits on. Side-effecting instructions
// whose order matters (result-set plumbing, the query log) also chain
// on the previous one, so rsColumn calls append in plan order. Every
// slice is shared by every run of the plan and must not be modified.
type Schedule struct {
	// Deps is Plan.Deps: per pc, the producers it reads, ascending.
	Deps [][]int
	// Uses is, per pc, the instructions that wait on it: its readers
	// ascending, then the next ordered instruction when it is ordered.
	Uses [][]int
	// Pending is, per pc, how many Uses lists name it: the finishes it
	// waits for before it may run.
	Pending []int32
}

// Schedule returns the plan's dataflow schedule, built once per body
// like Readers: an instance shares its body's. For finalized plans only;
// safe for concurrent use.
func (p *Plan) Schedule() *Schedule {
	if p.body != nil {
		return p.body.Schedule()
	}
	p.schedOnce.Do(func() {
		var n int64
		p.sched, n = p.schedule()
		p.memoMu.Lock()
		p.memoBytes += n
		p.memoMu.Unlock()
	})
	return p.sched
}

// schedule builds the dataflow schedule and reports its size. The edge
// lists of Deps share one slab and those of Uses another.
func (p *Plan) schedule() (*Schedule, int64) {
	n := len(p.Instrs)
	def := p.DefSites()
	nArgs := 0
	for _, in := range p.Instrs {
		nArgs += len(in.Args)
	}
	s := &Schedule{Deps: make([][]int, n), Uses: make([][]int, n), Pending: make([]int32, n)}
	slab := make([]int, 0, nArgs)
	uses := make([]int32, n) // per pc, how many wait on it
	for i, in := range p.Instrs {
		k := len(slab)
		for _, a := range in.Args {
			if a.IsConst() || a.Var() >= len(def) {
				continue
			}
			if d := def[a.Var()]; d >= 0 && d != in.PC {
				slab = append(slab, d)
			}
		}
		slices.Sort(slab[k:])
		slab = slab[:k+len(slices.Compact(slab[k:]))]
		s.Deps[i] = slab[k:len(slab):len(slab)]
		for _, d := range s.Deps[i] {
			uses[d]++
		}
	}
	// The ordered chain: next[i] is the ordered instruction after
	// ordered instruction i, or -1.
	next := make([]int, n)
	last := -1
	for i, in := range p.Instrs {
		next[i] = -1
		s.Pending[i] = int32(len(s.Deps[i]))
		if in.ordered() {
			if last >= 0 {
				next[last] = i
				uses[last]++
				s.Pending[i]++
			}
			last = i
		}
	}
	total := 0
	for _, u := range uses {
		total += int(u)
	}
	size := int64(unsafe.Sizeof(*s)) + int64(n)*int64(2*unsafe.Sizeof([]int(nil))+unsafe.Sizeof(int32(0))) +
		int64(cap(slab)+total)*int64(unsafe.Sizeof(int(0)))
	slab = make([]int, total)
	at := 0
	for pc, u := range uses {
		s.Uses[pc] = slab[at : at : at+int(u)]
		at += int(u)
	}
	for pc, ds := range s.Deps {
		for _, d := range ds {
			s.Uses[d] = append(s.Uses[d], pc)
		}
	}
	for pc, nx := range next {
		if nx >= 0 {
			s.Uses[pc] = append(s.Uses[pc], nx)
		}
	}
	return s, size
}

// ordered reports whether the instruction has side effects whose order
// matters (result-set construction, the query log).
func (in *Instr) ordered() bool {
	switch in.Name() {
	case "sql.resultSet", "sql.rsColumn", "sql.exportResult", "querylog.define":
		return true
	}
	return false
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
	if p.body != nil {
		return p.body.ValidateCached()
	}
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
	if p.body != nil {
		return p.body.Readers()
	}
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
// on first use: one string holding every statement the plan renders
// itself, which CachedStmt slices. The profiler attaches the statement
// text to every start/done event, so re-executions of a cached plan
// would otherwise re-render every instruction on every run; with the
// memo the text is built once per plan lifetime. An instance renders
// only the statements that read a constant whose literal is not its
// body's, and takes every other one from its body's memo. Only call
// this on finalized plans (the engine does, post-Validate): rewriting a
// plan after the first CachedStmt call would serve stale text. Safe for
// concurrent use.
func (p *Plan) CachedStmt(in *Instr) string {
	p.stmtsOnce.Do(p.renderStmts)
	m := p.stmts
	if pc := in.PC; pc >= 0 && pc < len(m.at) {
		k := m.at[pc]
		if k < 0 {
			return p.body.CachedStmt(in)
		}
		start := uint32(0)
		if k > 0 {
			start = m.ends[k-1]
		}
		return m.text[start:m.ends[k]]
	}
	return p.StmtString(in)
}

func (p *Plan) renderStmts() {
	moved := p.movedConsts()
	m := &stmtMemo{at: make([]int32, len(p.Instrs))}
	own := 0
	for pc, in := range p.Instrs {
		if p.body != nil && !readsAny(in, moved) {
			m.at[pc] = -1
			continue
		}
		m.at[pc] = int32(own)
		own++
	}
	m.ends = make([]uint32, 0, own)
	var b []byte
	for pc, in := range p.Instrs {
		if m.at[pc] >= 0 {
			b = p.appendStmt(b, in)
			m.ends = append(m.ends, uint32(len(b)))
		}
	}
	m.text = string(b)
	p.stmts = m
	p.memoMu.Lock()
	p.memoBytes += int64(unsafe.Sizeof(*m)) + int64(len(m.text)) +
		int64(cap(m.ends))*int64(unsafe.Sizeof(uint32(0))) + int64(cap(m.at))*int64(unsafe.Sizeof(int32(0)))
	p.memoMu.Unlock()
}

// movedConsts marks the constant slots of an instance whose literal is
// not its body's, compared as ConstOf compares them, so -0.0 is not
// 0.0. It is nil for a plan that is no instance, and for an instance
// that shares its body's table.
func (p *Plan) movedConsts() []bool {
	if p.body == nil || unsafe.SliceData(p.Consts) == unsafe.SliceData(p.body.Consts) {
		return nil
	}
	moved := make([]bool, len(p.Consts))
	for i, c := range p.Consts {
		moved[i] = i >= len(p.body.Consts) || !c.Identical(p.body.Consts[i])
	}
	return moved
}

// readsAny reports whether in has a constant operand in a marked slot.
func readsAny(in *Instr, slots []bool) bool {
	for _, a := range in.Args {
		if a.IsConst() && int(^a) < len(slots) && slots[^a] {
			return true
		}
	}
	return false
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
	return string(b)
}

// Clone returns a deep copy of the plan in exact-size storage: its
// instructions, their operands and their results each fill one slab,
// and the variable and constant tables are copied to their length.
// Optimizer passes operate on clones so the unoptimized plan remains
// available for side-by-side display, and the optimizer's result is a
// clone of what the passes kept.
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

// Instance returns a plan of p's body under another statement: it
// shares p's variables, instructions, validation, read counts, dataflow
// schedule and statement memo — which every holder treats as immutable
// — and owns its query text, its constant table consts (p's with some
// slots rewritten, so just as long, or p's own table for the statement
// p was compiled from) and a sparse statement memo: the text of the
// statements that read one of its own literals. An instance of an
// instance shares the first plan's body.
func (p *Plan) Instance(query string, consts []Value) *Plan {
	body := p
	if p.body != nil {
		body = p.body
	}
	return &Plan{Query: query, Vars: p.Vars, Consts: consts, Instrs: p.Instrs, body: body}
}

// Body is the plan whose body an instance shares, nil for a plan that
// owns its own.
func (p *Plan) Body() *Plan { return p.body }

// Bytes is the plan's resident size, computed by arithmetic the way
// storage.BAT.FootprintBytes is: the plan header, the variable and
// constant tables, every instruction with its operands and results and,
// once CachedStmt, Readers and Schedule have built them, the statement
// memo, the read counts and the schedule. An instance counts only what
// it owns: the header, its constant table unless it shares its Body's,
// and its sparse statement memo; its Body counts the rest. Size-class
// rounding is not counted.
func (p *Plan) Bytes() int64 {
	n := int64(unsafe.Sizeof(*p)) +
		int64(len(p.constIdx)+len(p.ownIdx))*int64(unsafe.Sizeof(constKey{})+unsafe.Sizeof(Arg(0)))
	if p.body == nil || unsafe.SliceData(p.Consts) != unsafe.SliceData(p.body.Consts) {
		n += int64(cap(p.Consts)) * int64(unsafe.Sizeof(Value{}))
		for _, c := range p.Consts {
			n += int64(len(c.Str))
		}
	}
	if p.body == nil {
		n += int64(cap(p.Vars))*int64(unsafe.Sizeof(Variable{})) +
			int64(cap(p.Instrs))*int64(unsafe.Sizeof((*Instr)(nil)))
		for _, in := range p.Instrs {
			n += int64(unsafe.Sizeof(*in)) + int64(cap(in.Args))*int64(unsafe.Sizeof(Arg(0))) +
				int64(cap(in.Rets))*int64(unsafe.Sizeof(int(0)))
		}
	}
	p.memoMu.Lock()
	n += p.memoBytes
	p.memoMu.Unlock()
	return n
}
