// Morsel-driven fragment execution (mat.morsel): the lowering behind
// DB.Stream, the one caller that needs rows before the scan ends. Where
// mitosis cuts a scan into static compile-time slices, a morsel
// fragment runs the whole operator chain above a scan morsel-at-a-time
// — workers pull fixed-size row ranges from a shared atomic cursor, so
// a skewed range no longer straggles on one worker and peak
// intermediate memory is bounded by workers × morsel rows instead of
// partitions × slice. Only the fragment's per-morsel exports
// materialize, packed across morsels in morsel order by the combine
// stage below.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/mal"
	"stethoscope/internal/storage"
)

// DefaultMorselRows is the morsel size used when Options.MorselRows is
// unset, shared with the adaptive tuner.
const DefaultMorselRows = adaptive.DefaultMorselRows

// kMorsel executes one morsel fragment:
//
//	rets := mat.morsel(fragID, nSrc, nCap, src..., cap...)
//
// Cursor semantics: morsel m covers source rows
// [m*morsel, min(n, (m+1)*morsel)); workers claim morsels with an
// atomic fetch-add, so assignment is dynamic but the set of morsels is
// fixed up front. An empty input still runs exactly one empty morsel,
// so per-morsel partial aggregates keep the same zero-row placeholder
// semantics as empty static slices. Each worker reuses one fragment
// context; per-morsel values are dropped after the morsel's exports are
// collected, which is what bounds the intermediates. Workers observe
// ctx cancellation between morsels, not just between outer
// instructions. When this instruction is the run's streaming source
// (Context.streamPC), each morsel's exports are emitted in morsel order
// as soon as the prefix is complete.
func kMorsel(ctx *Context, in *mal.Instr) error {
	fid, err := ctx.intArg(in, 0)
	if err != nil {
		return err
	}
	if fid < 0 || int(fid) >= len(ctx.Plan.Frags) {
		return fmt.Errorf("no fragment %d in plan", fid)
	}
	f := ctx.Plan.Frags[fid]
	nSrc, err := ctx.intArg(in, 1)
	if err != nil {
		return err
	}
	nCap, err := ctx.intArg(in, 2)
	if err != nil {
		return err
	}
	if int(nSrc) != len(f.Params) || int(nCap) != len(f.Caps) {
		return fmt.Errorf("fragment %d wants %d params and %d caps, instruction carries %d and %d",
			fid, len(f.Params), len(f.Caps), nSrc, nCap)
	}
	if len(in.Args) != 3+int(nSrc)+int(nCap) {
		return fmt.Errorf("fragment %d: %d arguments, want %d", fid, len(in.Args), 3+nSrc+nCap)
	}
	if len(in.Rets) != len(f.Outs) {
		return fmt.Errorf("fragment %d exports %d columns, instruction returns %d", fid, len(f.Outs), len(in.Rets))
	}

	srcs := make([]*storage.BAT, nSrc)
	for i := range srcs {
		if srcs[i], err = ctx.bat(in, 3+i); err != nil {
			return err
		}
	}
	caps := make([]mal.Value, nCap)
	for i := range caps {
		caps[i] = ctx.value(in.Args[3+int(nSrc)+i])
	}
	n := 0
	if len(srcs) > 0 {
		n = srcs[0].Len()
	}
	for i, s := range srcs {
		if s.Len() != n {
			return fmt.Errorf("fragment %d: source %d has %d rows, source 0 has %d", fid, i, s.Len(), n)
		}
	}

	morsel := ctx.morselRows
	if morsel < 1 {
		morsel = DefaultMorselRows
	}
	nM := (n + morsel - 1) / morsel
	if nM < 1 {
		nM = 1
	}
	fkernels, err := ctx.eng.resolve(f.Plan)
	if err != nil {
		return err
	}
	workers := ctx.workers
	if workers > nM {
		workers = nM
	}
	if workers < 1 {
		workers = 1
	}
	cctx := ctx.cctx
	if cctx == nil {
		cctx = context.Background()
	}
	streaming := ctx.emit != nil && in.PC == ctx.streamPC

	// Publish this fragment's cursor dimensions to the run's live
	// progress entry, and resolve the engine's morsel metric cells once
	// per instruction — the per-morsel accounting below is atomic adds.
	ctx.prog.addMorselWork(int64(n), int64(nM))
	em := ctx.eng.met

	results := make([][]*storage.BAT, nM)
	var (
		cursor   atomic.Int64
		mu       sync.Mutex // guards firstErr, results prefix scan, next
		firstErr error
		next     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	work := func() {
		fctx := &Context{
			Plan:     f.Plan,
			eng:      ctx.eng,
			kernels:  fkernels,
			vals:     make([]mal.Value, len(f.Plan.Vars)),
			streamPC: -1,
		}
		// A fragment context releases nothing: its exports are emitted
		// and packed, and a morsel's values are only dropped when the
		// next morsel starts. Pinning them leaves their arrays to the
		// collector and takes them out of the intermediate count.
		defer fctx.pinAll()
		for {
			// The between-morsels cancellation point: a long scan stops
			// at the next morsel boundary, not at the next instruction.
			if err := cctx.Err(); err != nil {
				fail(fmt.Errorf("canceled between morsels: %w", err))
				return
			}
			if failed() {
				return
			}
			m := int(cursor.Add(1)) - 1
			if m >= nM {
				return
			}
			if em != nil {
				em.morselsClaimed.Inc()
			}
			lo := m * morsel
			hi := lo + morsel
			if hi > n {
				hi = n
			}
			fctx.pinAll()
			for i, pv := range f.Params {
				fctx.vals[pv] = mal.Value{Type: f.Plan.VarType(pv), Col: srcs[i].Slice(lo, hi)}
			}
			for i, cv := range f.Caps {
				fctx.vals[cv] = caps[i]
			}
			for _, fin := range f.Plan.Instrs {
				if err := callKernel(fkernels[fin.PC], fctx, fin); err != nil {
					fail(fmt.Errorf("morsel %d: fragment pc=%d %s: %w", m, fin.PC, fin.Name(), err))
					return
				}
			}
			out := make([]*storage.BAT, len(f.Outs))
			for i, ov := range f.Outs {
				b, ok := fctx.vals[ov].Col.(*storage.BAT)
				if !ok {
					fail(fmt.Errorf("morsel %d: fragment export %d is not a BAT", m, i))
					return
				}
				out[i] = b
			}
			if em != nil {
				em.morselRows.Add(int64(hi - lo))
			}
			ctx.prog.morselFinished(int64(hi - lo))
			mu.Lock()
			if firstErr != nil {
				mu.Unlock()
				return
			}
			results[m] = out
			if streaming {
				// Emit the completed prefix in morsel order. Emitting
				// under the mutex stalls peers that already finished
				// their morsel — that backpressure is what keeps
				// in-flight batches bounded when the consumer is slow.
				for next < nM && results[next] != nil {
					batch := make([]*storage.BAT, len(ctx.emitOrder))
					for bi, oi := range ctx.emitOrder {
						batch[bi] = results[next][oi]
					}
					next++
					if len(batch) > 0 && batch[0].Len() == 0 {
						continue
					}
					if err := ctx.emit(ctx.emitNames, batch); err != nil {
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}
			mu.Unlock()
		}
	}

	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	if streaming {
		ctx.streamed.Store(true)
	}

	// Combine stage: the materialization boundary. Each export packs
	// across morsels in morsel order, which equals sequential row order.
	parts := make([]*storage.BAT, len(results))
	for i := range f.Outs {
		for m := range results {
			parts[m] = results[m][i]
		}
		packed, err := storage.Concat(parts)
		if err != nil {
			return fmt.Errorf("fragment %d export %d: %w", fid, i, err)
		}
		ctx.setBAT(in, i, packed)
	}
	return nil
}

// pinAll clears every slot of a context that does not release, pinning
// the BATs it held.
func (ctx *Context) pinAll() {
	for i := range ctx.vals {
		if b, ok := ctx.vals[i].Col.(*storage.BAT); ok {
			b.Pin()
		}
		ctx.vals[i] = mal.Value{}
	}
}

// streamInfo decides whether a plan can stream: every result column
// (sql.rsColumn) must be computed by the same single mat.morsel
// instruction. It returns that instruction's PC, the per-result-column
// index into its returns, and the result column names — or -1 when the
// plan only materializes (sorts, packed fallbacks, sequential plans).
func streamInfo(plan *mal.Plan) (streamPC int, order []int, names []string) {
	def := make(map[int]*mal.Instr)
	for _, in := range plan.Instrs {
		for _, r := range in.Rets {
			def[r] = in
		}
	}
	var src *mal.Instr
	for _, in := range plan.Instrs {
		if in.Name() != "sql.rsColumn" || len(in.Args) < 3 {
			continue
		}
		nameArg, colArg := in.Args[1], in.Args[2]
		if !nameArg.IsConst() || colArg.IsConst() {
			return -1, nil, nil
		}
		d := def[colArg.Var()]
		if d == nil || d.Name() != "mat.morsel" {
			return -1, nil, nil
		}
		if src == nil {
			src = d
		} else if src != d {
			return -1, nil, nil
		}
		idx := -1
		for i, r := range d.Rets {
			if r == colArg.Var() {
				idx = i
				break
			}
		}
		if idx < 0 {
			return -1, nil, nil
		}
		order = append(order, idx)
		names = append(names, plan.Const(nameArg).Str)
	}
	if src == nil {
		return -1, nil, nil
	}
	return src.PC, order, names
}
