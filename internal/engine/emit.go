// Streaming a run's result: a plan whose result columns are all packs of
// the same P parts hands each part to Options.Emit as soon as it and the
// parts before it are complete, while the run is still executing.
package engine

import (
	"fmt"
	"sync"

	"stethoscope/internal/mal"
	"stethoscope/internal/storage"
)

// partStream emits the parts of a run's result packs in part order. A
// part is complete when every result column's argument for it has been
// produced; exec reports each finished instruction (done), and the
// complete prefix is emitted under mu. Emitting under the mutex stalls
// the workers that finish a part meanwhile: that backpressure keeps the
// batches in flight bounded when the consumer is slow. Emit must not
// wait on the run's progress (DB.Stream's selects on its context), as
// the workers it stalls are what would make that progress.
type partStream struct {
	emit  func(names []string, cols []*storage.BAT) error
	names []string
	// at lists, per pack argument variable, the (part, column) cells it
	// fills; one variable may fill several when result columns repeat.
	at map[int][]partCol

	mu    sync.Mutex
	parts [][]*storage.BAT // parts[i][c]: column c of part i, once produced
	left  []int            // columns of part i not yet produced
	next  int              // first part not yet emitted
	err   error            // the consumer's error, once it refused a batch
}

type partCol struct{ part, col int }

// newPartStream returns the stream of plan's result packs, or nil when
// the plan does not stream: some sql.rsColumn reads something other
// than a mat.pack of variables, or the packs differ in arity. Such a
// plan serves Emit with one batch, its final result. plan is validated,
// so every variable it reads has its defining instruction.
func newPartStream(plan *mal.Plan, emit func(names []string, cols []*storage.BAT) error) *partStream {
	def := make(map[int]*mal.Instr)
	for _, in := range plan.Instrs {
		for _, r := range in.Rets {
			def[r] = in
		}
	}
	s := &partStream{emit: emit, at: make(map[int][]partCol)}
	nparts := -1
	for _, in := range plan.Instrs {
		if in.Name() != "sql.rsColumn" || len(in.Args) < 3 {
			continue
		}
		nameArg, colArg := in.Args[1], in.Args[2]
		if !nameArg.IsConst() || colArg.IsConst() {
			return nil
		}
		pack := def[colArg.Var()]
		if pack.Name() != "mat.pack" || (nparts >= 0 && len(pack.Args) != nparts) {
			return nil
		}
		nparts = len(pack.Args)
		col := len(s.names)
		for i, a := range pack.Args {
			if a.IsConst() {
				return nil
			}
			s.at[a.Var()] = append(s.at[a.Var()], partCol{i, col})
		}
		s.names = append(s.names, plan.Const(nameArg).Str)
	}
	if nparts < 1 {
		return nil
	}
	s.parts = make([][]*storage.BAT, nparts)
	s.left = make([]int, nparts)
	for i := range s.parts {
		s.parts[i] = make([]*storage.BAT, len(s.names))
		s.left[i] = len(s.names)
	}
	return s
}

// done records what instruction in produced and emits every part that
// is now complete, in order, skipping empty ones. A part's BATs are
// pinned when they are produced: the mat.pack that reads them retires
// them while the consumer may still be reading the batch.
func (s *partStream) done(ctx *Context, in *mal.Instr) error {
	hit := false
	for _, r := range in.Rets {
		hit = hit || len(s.at[r]) > 0
	}
	if !hit {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	for _, r := range in.Rets {
		for _, pc := range s.at[r] {
			b, ok := ctx.vals[r].Col.(*storage.BAT)
			if !ok {
				return fmt.Errorf("result part %d of column %d is not a BAT", pc.part, pc.col)
			}
			b.Pin()
			s.parts[pc.part][pc.col] = b
			s.left[pc.part]--
		}
	}
	for s.next < len(s.parts) && s.left[s.next] == 0 {
		batch := s.parts[s.next]
		s.parts[s.next] = nil
		s.next++
		if batch[0].Len() == 0 {
			continue
		}
		if s.err = s.emit(s.names, batch); s.err != nil {
			return s.err
		}
	}
	return nil
}
