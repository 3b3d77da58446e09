package mal

import "sync"

// Opcode is an interned module.function pair. An instruction points at
// its opcode instead of carrying two strings; OpOf returns the one
// Opcode of each pair, so opcodes compare by pointer. Opcodes come from
// the fixed set the compiler emits and the engine registers, so the
// table stays small.
type Opcode struct {
	module, function, name string
}

var (
	opMu sync.RWMutex
	ops  = map[[2]string]*Opcode{}
)

// OpOf returns the opcode of module.function, interning it on first
// use. Safe for concurrent use.
func OpOf(module, function string) *Opcode {
	pair := [2]string{module, function}
	opMu.RLock()
	op, ok := ops[pair]
	opMu.RUnlock()
	if ok {
		return op
	}
	opMu.Lock()
	defer opMu.Unlock()
	if op, ok := ops[pair]; ok {
		return op
	}
	op = &Opcode{module: module, function: function, name: module + "." + function}
	ops[pair] = op
	return op
}

// Module returns the opcode's module, e.g. "algebra".
func (o *Opcode) Module() string { return o.module }

// Function returns the opcode's function, e.g. "thetaselect".
func (o *Opcode) Function() string { return o.function }

// Name returns the qualified "module.function" name.
func (o *Opcode) Name() string { return o.name }
