package engine

import (
	"fmt"
	"strings"

	"stethoscope/internal/mal"
	"stethoscope/internal/profiler"
	"stethoscope/internal/storage"
)

// Debugger is the reproduction of MonetDB's "GDB-like MAL debugger for
// runtime inspection" (paper §2) — the tool Stethoscope improves upon.
// It drives a sequential interpretation of a plan one instruction at a
// time with breakpoints by pc or module, and inspects variable contents
// mid-execution. Stethoscope's debug-options window shows the same
// information visually; keeping the textual debugger lets tests and
// users cross-check both.
type Debugger struct {
	eng  *Engine
	ctx  *Context
	plan *mal.Plan
	pc   int
	prof *profiler.Profiler

	breakPCs     map[int]bool
	breakModules map[string]bool
}

// NewDebugger prepares a plan for stepped execution. The optional
// profiler receives events exactly as a normal run would emit them.
func NewDebugger(eng *Engine, plan *mal.Plan, prof *profiler.Profiler) (*Debugger, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if prof != nil {
		prof.Reset()
	}
	ctx, err := eng.newContext(plan)
	if err != nil {
		return nil, err
	}
	return &Debugger{
		eng:          eng,
		ctx:          ctx,
		plan:         plan,
		prof:         prof,
		breakPCs:     map[int]bool{},
		breakModules: map[string]bool{},
	}, nil
}

// PC returns the program counter of the next instruction to execute.
func (d *Debugger) PC() int { return d.pc }

// Done reports whether the plan has run to completion.
func (d *Debugger) Done() bool { return d.pc >= len(d.plan.Instrs) }

// BreakAt sets a breakpoint on a program counter.
func (d *Debugger) BreakAt(pc int) error {
	if pc < 0 || pc >= len(d.plan.Instrs) {
		return fmt.Errorf("engine: breakpoint pc=%d out of range 0..%d", pc, len(d.plan.Instrs)-1)
	}
	d.breakPCs[pc] = true
	return nil
}

// BreakModule breaks on every instruction of a MAL module ("algebra").
func (d *Debugger) BreakModule(module string) { d.breakModules[module] = true }

// ClearBreakpoints removes all breakpoints.
func (d *Debugger) ClearBreakpoints() {
	d.breakPCs = map[int]bool{}
	d.breakModules = map[string]bool{}
}

// Step executes the current instruction and advances. It returns the
// executed instruction; ok is false when the plan had already finished.
func (d *Debugger) Step() (*mal.Instr, bool, error) {
	if d.Done() {
		return nil, false, nil
	}
	in := d.plan.Instrs[d.pc]
	err := d.eng.exec(d.ctx, in, 0, d.prof)
	// The debugger keeps every value for inspection and releases
	// nothing: its results are pinned, left to the collector.
	for _, r := range in.Rets {
		if b, ok := d.ctx.vals[r].Col.(*storage.BAT); ok {
			b.Pin()
		}
	}
	if err != nil {
		return in, true, err
	}
	d.pc++
	return in, true, nil
}

// breaksOn reports whether execution should pause before instruction in.
func (d *Debugger) breaksOn(in *mal.Instr) bool {
	return d.breakPCs[in.PC] || d.breakModules[in.Module()]
}

// Continue runs until the next breakpoint or the end of the plan. It
// returns the instruction it stopped *before* (nil at plan end). The
// instruction at the initial pc always executes, so repeated Continue
// calls make progress through back-to-back breakpoints.
func (d *Debugger) Continue() (*mal.Instr, error) {
	first := true
	for !d.Done() {
		in := d.plan.Instrs[d.pc]
		if !first && d.breaksOn(in) {
			return in, nil
		}
		first = false
		if _, _, err := d.Step(); err != nil {
			return in, err
		}
	}
	return nil, nil
}

// Inspect describes the current value of a variable: its declared type
// and, for BATs, kind and row count.
func (d *Debugger) Inspect(varID int) (string, error) {
	if varID < 0 || varID >= len(d.ctx.vals) {
		return "", fmt.Errorf("engine: variable %d out of range", varID)
	}
	v := d.ctx.vals[varID]
	name := d.plan.VarName(varID)
	if b, ok := v.Col.(*storage.BAT); ok {
		return fmt.Sprintf("%s:%s = BAT[%s] %d rows", name, d.plan.VarType(varID), b.Kind(), b.Len()), nil
	}
	if v.Nil() {
		return fmt.Sprintf("%s:%s = <unset>", name, d.plan.VarType(varID)), nil
	}
	return fmt.Sprintf("%s:%s = %s", name, d.plan.VarType(varID), v), nil
}

// InspectByName resolves a variable by display name ("X_3").
func (d *Debugger) InspectByName(name string) (string, error) {
	for id := range d.plan.Vars {
		if d.plan.VarName(id) == name {
			return d.Inspect(id)
		}
	}
	return "", fmt.Errorf("engine: unknown variable %q", name)
}

// Listing renders the plan with a '=>' cursor and '*' breakpoint marks,
// the debugger's "list" view.
func (d *Debugger) Listing() string {
	var b strings.Builder
	for _, in := range d.plan.Instrs {
		cursor := "  "
		if in.PC == d.pc {
			cursor = "=>"
		}
		bp := " "
		if d.breaksOn(in) {
			bp = "*"
		}
		fmt.Fprintf(&b, "%s%s [%3d] %s\n", cursor, bp, in.PC, d.plan.StmtString(in))
	}
	return b.String()
}

// Result returns the exported result after the plan completed.
func (d *Debugger) Result() *Result {
	if !d.Done() {
		return nil
	}
	return d.ctx.final
}
