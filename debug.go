package stethoscope

import (
	"fmt"
	"io"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/engine"
	"stethoscope/internal/planner"
	"stethoscope/internal/runner"
	"stethoscope/internal/sql"
)

// Debugger is the GDB-like MAL debugger (paper §2) — stepped sequential
// execution with breakpoints by pc or module and mid-run variable
// inspection. The plan is the raw compiler lowering, unoptimized, so
// every variable the SQL produced is inspectable.
type Debugger struct {
	d    *engine.Debugger
	size int
}

// DebugStep describes one executed (or stopped-at) instruction.
type DebugStep struct {
	PC   int
	Name string // "module.function"
}

// Debug compiles a query without optimization and opens a stepping
// session over it. Partition settings pass through the same
// normalization and Auto resolution as Exec and Explain.
func (db *DB) Debug(query string, opts ...ExecOption) (*Debugger, error) {
	requested, err := runner.Partitions(db.settings(opts).Partitions)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: parse: %w", err)
	}
	tree, err := algebra.Bind(stmt, db.cat)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: bind: %w", err)
	}
	partitions, _ := planner.ResolvePartitions(db.cat, requested, tree)
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: partitions})
	if err != nil {
		return nil, fmt.Errorf("stethoscope: compile: %w", err)
	}
	d, err := engine.NewDebugger(db.run.Engine, plan, nil)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	return &Debugger{d: d, size: len(plan.Instrs)}, nil
}

// PlanSize returns the instruction count of the debugged plan.
func (d *Debugger) PlanSize() int { return d.size }

// PC returns the program counter of the next instruction to execute.
func (d *Debugger) PC() int { return d.d.PC() }

// Done reports whether the plan has run to completion.
func (d *Debugger) Done() bool { return d.d.Done() }

// Listing renders the plan with a '=>' cursor and '*' breakpoint marks.
func (d *Debugger) Listing() string { return d.d.Listing() }

// Step executes the current instruction and advances. It returns nil
// when the plan had already finished.
func (d *Debugger) Step() (*DebugStep, error) {
	in, ok, err := d.d.Step()
	if !ok || in == nil {
		return nil, err
	}
	return &DebugStep{PC: in.PC, Name: in.Name()}, err
}

// Continue runs until the next breakpoint or the end of the plan. It
// returns the instruction it stopped before (nil at plan end).
func (d *Debugger) Continue() (*DebugStep, error) {
	in, err := d.d.Continue()
	if in == nil {
		return nil, err
	}
	return &DebugStep{PC: in.PC, Name: in.Name()}, err
}

// BreakAt sets a breakpoint on a program counter.
func (d *Debugger) BreakAt(pc int) error { return d.d.BreakAt(pc) }

// BreakModule breaks on every instruction of a MAL module ("algebra").
func (d *Debugger) BreakModule(module string) { d.d.BreakModule(module) }

// ClearBreakpoints removes all breakpoints.
func (d *Debugger) ClearBreakpoints() { d.d.ClearBreakpoints() }

// Inspect describes a variable's current value by display name ("X_3").
func (d *Debugger) Inspect(name string) (string, error) { return d.d.InspectByName(name) }

// WriteResult renders the exported result table after the plan
// completed. It reports false when the plan has not finished.
func (d *Debugger) WriteResult(w io.Writer) (bool, error) {
	res := d.d.Result()
	if res == nil {
		return false, nil
	}
	_, err := res.WriteText(w)
	return true, err
}
