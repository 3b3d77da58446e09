// Package engine implements the MAL interpreter of the reproduction — the
// Mserver execution core. It executes plans produced by internal/compiler
// over BATs from internal/storage, in two modes: sequential
// interpretation, and multi-core dataflow execution (a dependency-counting
// scheduler over a worker pool, MonetDB's language.dataflow). Every
// instruction execution is bracketed by profiler start/done events so
// Stethoscope can animate the run (paper §3.3).
package engine

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"stethoscope/internal/mal"
	"stethoscope/internal/metrics"
	"stethoscope/internal/profiler"
	"stethoscope/internal/storage"
)

// Result is the table a plan's sql.exportResult produces.
type Result struct {
	Names []string
	Cols  []*storage.BAT
}

// Rows returns the result row count.
func (r *Result) Rows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// WriteText renders the table as tab-separated text with a header line
// (storage.WriteText owns the format) and returns the bytes written. A
// nil result writes nothing.
func (r *Result) WriteText(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	return storage.WriteText(w, r.Names, r.Cols, r.Rows(), '\t')
}

// Kernel implements one MAL module.function over the execution context.
type Kernel func(ctx *Context, in *mal.Instr) error

// KernelPanic is the error a panicking kernel is converted into, so a
// bug in one kernel costs one query an error instead of the process:
// the run fails like any kernel error and the engine stays usable. The
// one-line message carries the panic value; the goroutine stack at the
// point of the panic is kept in Stack for whoever unwraps the error.
type KernelPanic struct {
	Value any
	Stack []byte
}

func (p *KernelPanic) Error() string { return fmt.Sprintf("kernel panic: %v", p.Value) }

// callKernel runs k and contains a panic as a *KernelPanic. exec, the
// one place that invokes kernels (on the run's goroutine or a dataflow
// worker), goes through it and wraps the error with the pc and opcode it
// was running.
func callKernel(k Kernel, ctx *Context, in *mal.Instr) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &KernelPanic{Value: v, Stack: debug.Stack()}
		}
	}()
	return k(ctx, in)
}

// Engine holds the catalog and the kernel registry. One Engine serves
// many concurrent queries; per-query state lives in Context.
//
// Reentrancy contract: Run/RunContext may be called concurrently from
// any number of goroutines. Per-run state (variable slots, result set)
// lives in a private Context; the catalog is read-only during execution
// and the kernel registry is lock-protected, so concurrent runs share
// no mutable state. The caller's obligations are: a *mal.Plan may be
// shared between concurrent runs (kernels never mutate plans) but must
// not be rewritten while any run uses it, and a profiler.Profiler
// instance must not be shared between concurrent runs (RunContext
// resets its clock and sequence numbering).
type Engine struct {
	cat *storage.Catalog

	regMu    sync.RWMutex
	registry map[*mal.Opcode]Kernel

	// met holds the scheduler metric cells when a registry is
	// attached via SetMetrics; nil otherwise. The in-flight progress
	// table (progress.go) is always on.
	met      *engineMetrics
	progMu   sync.Mutex
	progSeq  int64
	inflight map[int64]*runProgress
}

// New returns an engine over the catalog with the full kernel set
// registered.
func New(cat *storage.Catalog) *Engine {
	e := &Engine{cat: cat, registry: map[*mal.Opcode]Kernel{}, inflight: map[int64]*runProgress{}}
	registerKernels(e)
	return e
}

// Catalog exposes the engine's catalog (the server's metadata commands
// use it).
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// Register installs a kernel for "module.function". A second
// registration of the same opcode panics: it would silently replace the
// first. Safe to call while queries run.
func (e *Engine) Register(module, function string, k Kernel) {
	op := mal.OpOf(module, function)
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if _, dup := e.registry[op]; dup {
		panic("engine: kernel " + op.Name() + " registered twice")
	}
	e.registry[op] = k
}

// Replace swaps the kernel of a registered opcode and returns the one it
// replaced; tests use it for fault injection. Each run resolves its
// kernels at start, so a swap only affects runs that begin after it.
//
//stetho:ignore deadexport shared test fixture: the engine, runner and root tests inject kernel faults through it
func (e *Engine) Replace(module, function string, k Kernel) Kernel {
	op := mal.OpOf(module, function)
	e.regMu.Lock()
	defer e.regMu.Unlock()
	old, ok := e.registry[op]
	if !ok {
		panic("engine: no kernel " + op.Name() + " to replace")
	}
	e.registry[op] = k
	return old
}

// resolve maps every instruction to its kernel under one registry lock.
// Doing this once per run keeps the per-instruction hot path free of
// lock traffic.
func (e *Engine) resolve(plan *mal.Plan) ([]Kernel, error) {
	kernels := make([]Kernel, len(plan.Instrs))
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	for i, in := range plan.Instrs {
		k, ok := e.registry[in.Op]
		if !ok {
			return nil, fmt.Errorf("engine: unknown MAL operator %s at pc=%d", in.Name(), in.PC)
		}
		kernels[i] = k
	}
	return kernels, nil
}

// Options controls one plan execution.
type Options struct {
	// Workers is the dataflow parallelism; <= 1 selects sequential
	// interpretation (every instruction on thread 0).
	Workers int
	// Emit, when set, receives result batches as the run produces them.
	// On a streamable plan (every result column a mat.pack of the same
	// P parts) Emit is called once per non-empty part, in part order,
	// as soon as that part and the ones before it are complete, while
	// the run is still executing; otherwise it is called exactly once
	// with the final result. The BATs passed are pinned, so they stay
	// valid after Emit returns, but they are never copied: read them,
	// do not write them. An Emit error aborts the run.
	Emit func(names []string, cols []*storage.BAT) error
	// Profiler, when set, receives start/done events per instruction.
	Profiler *profiler.Profiler
	// Label identifies the run in the live progress table (typically
	// the SQL text). Empty labels are fine; the run still appears.
	Label string
}

// Context is the per-execution state: the variable slots, the kernels
// resolved for this run, and the result under construction.
type Context struct {
	Plan    *mal.Plan
	eng     *Engine
	kernels []Kernel // indexed by PC; resolved once per run
	// vals are the variable slots. In a run (RunContext) a slot dies at
	// its last use: left[v] starts at the plan's read count of v
	// (Plan.Readers) and drops as each reading instruction finishes, and
	// at zero the slot is cleared and its value released, returning a
	// recycled BAT array to the storage free list (retire). The debugger
	// has no left and keeps every slot.
	vals    []mal.Value
	left    []atomic.Int32
	mu      sync.Mutex // guards results
	results []*Result
	final   *Result

	// stream emits the result's parts while the run executes (emit.go);
	// nil when there is no Emit or the plan does not stream.
	stream *partStream

	// prog is the run's live progress entry; nil for contexts built
	// outside RunContext (the debugger), whose updates then no-op.
	prog *runProgress

	// tallies are the run's instruction metrics, one per worker, merged
	// into the registry when the run ends; nil when no registry is
	// attached, and outside RunContext.
	tallies []*workerTally
}

// value returns the runtime value of an argument.
func (ctx *Context) value(a mal.Arg) mal.Value {
	if a.IsConst() {
		return ctx.Plan.Const(a)
	}
	return ctx.vals[a.Var()]
}

// bat extracts the BAT payload of argument i.
func (ctx *Context) bat(in *mal.Instr, i int) (*storage.BAT, error) {
	if i >= len(in.Args) {
		return nil, fmt.Errorf("engine: %s: missing argument %d", in.Name(), i)
	}
	v := ctx.value(in.Args[i])
	b, ok := v.Col.(*storage.BAT)
	if !ok {
		return nil, fmt.Errorf("engine: %s: argument %d is not a BAT (type %s)", in.Name(), i, v.Type)
	}
	return b, nil
}

// scalar extracts argument i as a storage comparison operand.
func (ctx *Context) scalar(in *mal.Instr, i int) (storage.Val, error) {
	if i >= len(in.Args) {
		return storage.Val{}, fmt.Errorf("engine: %s: missing argument %d", in.Name(), i)
	}
	v := ctx.value(in.Args[i])
	switch v.Type {
	case mal.TInt:
		return storage.IntVal(v.Int), nil
	case mal.TFlt:
		return storage.FltVal(v.Flt), nil
	case mal.TStr:
		return storage.StrVal(v.Str), nil
	case mal.TBool:
		return storage.BoolVal(v.Bool), nil
	case mal.TDate:
		return storage.DateVal(v.Int), nil
	case mal.TOID:
		return storage.OIDVal(v.Int), nil
	}
	return storage.Val{}, fmt.Errorf("engine: %s: argument %d is not a scalar", in.Name(), i)
}

// str extracts argument i as a string constant.
func (ctx *Context) str(in *mal.Instr, i int) (string, error) {
	if i >= len(in.Args) {
		return "", fmt.Errorf("engine: %s: missing argument %d", in.Name(), i)
	}
	v := ctx.value(in.Args[i])
	if v.Type != mal.TStr {
		return "", fmt.Errorf("engine: %s: argument %d is not a string", in.Name(), i)
	}
	return v.Str, nil
}

// intArg extracts argument i as an int64.
func (ctx *Context) intArg(in *mal.Instr, i int) (int64, error) {
	if i >= len(in.Args) {
		return 0, fmt.Errorf("engine: %s: missing argument %d", in.Name(), i)
	}
	v := ctx.value(in.Args[i])
	if v.Type != mal.TInt && v.Type != mal.TOID && v.Type != mal.TDate {
		return 0, fmt.Errorf("engine: %s: argument %d is not an integer", in.Name(), i)
	}
	return v.Int, nil
}

// boolArg extracts argument i as a bool.
func (ctx *Context) boolArg(in *mal.Instr, i int) (bool, error) {
	if i >= len(in.Args) {
		return false, fmt.Errorf("engine: %s: missing argument %d", in.Name(), i)
	}
	v := ctx.value(in.Args[i])
	if v.Type != mal.TBool {
		return false, fmt.Errorf("engine: %s: argument %d is not a bool", in.Name(), i)
	}
	return v.Bool, nil
}

// setBAT stores a BAT result into return slot i.
func (ctx *Context) setBAT(in *mal.Instr, i int, b *storage.BAT) {
	t := ctx.Plan.VarType(in.Rets[i])
	ctx.vals[in.Rets[i]] = mal.Value{Type: t, Col: b}
}

// setVal stores a scalar result into return slot i.
func (ctx *Context) setVal(in *mal.Instr, i int, v mal.Value) {
	ctx.vals[in.Rets[i]] = v
}

// Run executes the plan and returns its exported result (nil for plans
// without sql.exportResult).
func (e *Engine) Run(plan *mal.Plan, opt Options) (*Result, error) {
	return e.RunContext(context.Background(), plan, opt)
}

// RunContext executes the plan under a context: cancellation or deadline
// expiry aborts the run between instructions (sequential mode) or stops
// the dataflow scheduler from dispatching further work, and the context
// error is returned.
func (e *Engine) RunContext(cctx context.Context, plan *mal.Plan, opt Options) (*Result, error) {
	if err := plan.ValidateCached(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := cctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ctx, err := e.newContext(plan)
	if err != nil {
		return nil, err
	}
	ctx.left = make([]atomic.Int32, len(plan.Vars))
	for v, n := range plan.Readers() {
		ctx.left[v].Store(n)
	}
	defer storage.Running()()
	defer ctx.releaseAll()
	e.met.runCounter().Inc()
	ctx.prog = e.beginProgress(opt.Label, len(plan.Instrs))
	defer e.endProgress(ctx.prog)
	if opt.Emit != nil {
		ctx.stream = newPartStream(plan, opt.Emit)
	}
	if opt.Profiler != nil {
		opt.Profiler.Reset()
	}
	if opt.Workers <= 1 {
		err = e.runSequential(cctx, ctx, opt)
	} else {
		err = e.runDataflow(cctx, ctx, opt)
	}
	if err != nil {
		return nil, err
	}
	// Plans that do not stream still serve a streaming consumer: one
	// batch, the final result.
	if opt.Emit != nil && ctx.stream == nil && ctx.final != nil {
		if err := opt.Emit(ctx.final.Names, ctx.final.Cols); err != nil {
			return nil, fmt.Errorf("engine: emit: %w", err)
		}
	}
	return ctx.final, nil
}

// newContext builds the per-run state: fresh variable slots and the
// kernels resolved for every instruction.
func (e *Engine) newContext(plan *mal.Plan) (*Context, error) {
	kernels, err := e.resolve(plan)
	if err != nil {
		return nil, err
	}
	return &Context{Plan: plan, eng: e, kernels: kernels, vals: make([]mal.Value, len(plan.Vars))}, nil
}

// exec runs one instruction on the given logical thread, with profiling
// and metrics/progress accounting. It is where the sequential walker and
// the dataflow scheduler both finish an instruction, so it also hands a
// streaming run's completed result parts to Emit.
func (e *Engine) exec(ctx *Context, in *mal.Instr, thread int, prof *profiler.Profiler) error {
	k := ctx.kernels[in.PC]
	var tally *workerTally
	if ctx.tallies != nil {
		tally = ctx.tallies[thread]
	}
	// The duration histogram takes the profiler's span when there is
	// one, and reads the clock itself only when there is not.
	var span profiler.Span
	var t0 time.Time
	if prof != nil {
		span = prof.Begin(in.PC, thread, ctx.Plan.CachedStmt(in))
	} else if tally != nil {
		t0 = time.Now()
	}
	err := callKernel(k, ctx, in)
	ctx.prog.instrFinished()
	var d time.Duration
	if prof != nil {
		reads, writes, rss := ctx.accounting(in)
		d = span.End(rss, reads, writes)
	} else if tally != nil {
		d = time.Since(t0)
	}
	if tally != nil {
		tally.us.Observe(d.Microseconds())
	}
	if err != nil {
		return fmt.Errorf("engine: pc=%d %s: %w", in.PC, in.Name(), err)
	}
	if ctx.stream != nil {
		if err := ctx.stream.done(ctx, in); err != nil {
			return fmt.Errorf("engine: emit: %w", err)
		}
	}
	return nil
}

// retire runs after instruction in finishes in a run: every variable it
// read loses a reader, and a variable whose last reader this was dies,
// as does a result nothing reads. Its slot is cleared and its value
// released. The readers of one variable may finish on different
// workers; the one that takes the count to zero is the last to touch
// the slot, so the clear races with nothing.
func (ctx *Context) retire(in *mal.Instr) {
	for _, a := range in.Args {
		if !a.IsConst() && ctx.left[a.Var()].Add(-1) == 0 {
			ctx.drop(a.Var())
		}
	}
	for _, r := range in.Rets {
		if ctx.left[r].Load() == 0 {
			ctx.drop(r)
		}
	}
}

// drop clears slot v and releases what it held.
func (ctx *Context) drop(v int) {
	switch c := ctx.vals[v].Col.(type) {
	case *storage.BAT:
		c.Release()
	case *storage.JoinHash:
		c.Release()
	}
	ctx.vals[v] = mal.Value{}
}

// releaseAll drops every slot a run still holds when it ends: none after
// a run that finished, the values of instructions whose readers never ran
// after a failed or canceled one.
func (ctx *Context) releaseAll() {
	for v := range ctx.vals {
		if ctx.vals[v].Col != nil {
			ctx.drop(v)
		}
	}
}

// accounting estimates the profiler's reads/writes/rss fields from the
// instruction's BAT arguments and results.
func (ctx *Context) accounting(in *mal.Instr) (reads, writes, rssKB int64) {
	for _, a := range in.Args {
		if a.IsConst() {
			continue
		}
		if b, ok := ctx.vals[a.Var()].Col.(*storage.BAT); ok {
			reads += int64(b.Len())
		}
	}
	for _, r := range in.Rets {
		if b, ok := ctx.vals[r].Col.(*storage.BAT); ok {
			writes += int64(b.Len())
			rssKB += b.FootprintBytes() / 1024
		}
	}
	return reads, writes, rssKB
}

func (e *Engine) runSequential(cctx context.Context, ctx *Context, opt Options) error {
	ctx.tallies = e.met.tallies(1)
	defer mergeTallies(ctx.tallies)
	for _, in := range ctx.Plan.Instrs {
		if err := cctx.Err(); err != nil {
			return fmt.Errorf("engine: canceled at pc=%d: %w", in.PC, err)
		}
		if err := e.exec(ctx, in, 0, opt.Profiler); err != nil {
			return err
		}
		ctx.retire(in)
		ctx.finished(0)
	}
	return nil
}

// finished counts an instruction the worker completed.
func (ctx *Context) finished(worker int) {
	if ctx.tallies != nil {
		ctx.tallies[worker].instrs++
	}
}

// deque is one worker's ready queue. The owner pushes and pops at the
// back (LIFO: freshly-unblocked instructions reuse the producer's warm
// cache lines); thieves steal from the front (FIFO: the oldest, most
// independent work migrates). Each deque has its own mutex, so the only
// contention is between one owner and an occasional thief — never
// all-workers-on-one-lock.
type deque struct {
	mu    sync.Mutex
	items []int
	hw    *metrics.Gauge // deque depth high-water; nil when metrics are off
}

func (d *deque) push(pc int) {
	d.mu.Lock()
	d.items = append(d.items, pc)
	d.hw.SetMax(int64(len(d.items)))
	d.mu.Unlock()
}

func (d *deque) pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return 0, false
	}
	pc := d.items[n-1]
	d.items = d.items[:n-1]
	return pc, true
}

func (d *deque) steal() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	pc := d.items[0]
	d.items = d.items[1:]
	return pc, true
}

// runDataflow executes the plan's dataflow DAG on opt.Workers goroutines
// using dependency counting: an instruction becomes ready when all its
// producers have finished. Side-effecting instructions additionally chain
// on the previous side-effecting instruction to preserve their order.
//
// Scheduling is built for low contention on wide mitosis plans: pending
// dependency counts are per-instruction atomics (a completion touches
// only its consumers, not a global lock), each worker owns a ready
// deque and steals from its peers when its own runs dry, and a buffered
// token channel — one token per enqueued instruction — is the only
// shared structure, parking idle workers without any lost-wakeup
// window. The run-outcome mutex is touched once per run end, never per
// instruction.
func (e *Engine) runDataflow(cctx context.Context, ctx *Context, opt Options) error {
	plan := ctx.Plan
	n := len(plan.Instrs)
	if n == 0 {
		return nil
	}
	// The schedule — the dependency edges, their transpose with the
	// ordered chain, and the initial counts — is built once per plan
	// body; a run only copies the counts into its own atomics.
	sched := plan.Schedule()
	uses := sched.Uses
	pending := make([]atomic.Int32, n)
	for i, c := range sched.Pending {
		pending[i].Store(c)
	}

	workers := opt.Workers
	if workers > n {
		workers = n
	}
	// Metric cells resolved once per run; all nil (and no-ops) when no
	// registry is attached.
	em := e.met
	var dequeHW *metrics.Gauge
	if em != nil {
		dequeHW = em.dequeHW
	}
	ctx.tallies = em.tallies(workers)
	defer mergeTallies(ctx.tallies)
	queues := make([]*deque, workers)
	for w := range queues {
		queues[w] = &deque{hw: dequeHW}
	}
	// sem counts enqueued-but-unclaimed instructions. Every push into a
	// deque is followed by exactly one token send; every claim consumes
	// exactly one token first. The channel holds at most n tokens, so
	// sends never block, and a worker that receives a token is
	// guaranteed an instruction exists in some deque.
	sem := make(chan struct{}, n)
	var (
		completed atomic.Int64
		mu        sync.Mutex // guards firstErr/finished at run end only
		firstErr  error
		finished  bool
		wg        sync.WaitGroup
		done      = make(chan struct{})
	)
	finish := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if finished {
			return
		}
		finished = true
		firstErr = err
		close(done)
	}

	// Seed the initial ready set round-robin so every worker starts with
	// local work.
	seeded := 0
	for i := range plan.Instrs {
		if pending[i].Load() == 0 {
			queues[seeded%workers].push(i)
			seeded++
		}
	}
	for i := 0; i < seeded; i++ {
		//stetho:ignore ctxselect sem has capacity n and holds one token per ready instruction; seeding can never block
		sem <- struct{}{}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			own := queues[worker]
			// claim takes one enqueued instruction after a token was
			// received: own deque first, then steal sweeps. The counting
			// invariant (tokens never exceed enqueued instructions)
			// makes the outer loop terminate — an instruction exists
			// somewhere, it can only be mid-flight between a peer's push
			// and our sweep.
			claim := func() (int, bool) {
				for {
					if pc, ok := own.pop(); ok {
						return pc, true
					}
					for i := 1; i < workers; i++ {
						if pc, ok := queues[(worker+i)%workers].steal(); ok {
							if em != nil {
								em.steals.Inc()
							}
							return pc, true
						}
					}
					select {
					case <-done:
						return 0, false
					default:
						runtime.Gosched()
					}
				}
			}
			for {
				// A park is a blocking wait for a token: the worker found
				// no runnable instruction and goes idle until a peer
				// completes one. Counted via a non-blocking first attempt.
				select {
				case <-sem:
				default:
					if em != nil {
						em.parks.Inc()
					}
					select {
					case <-done:
						return
					case <-cctx.Done():
						finish(fmt.Errorf("engine: canceled: %w", cctx.Err()))
						return
					case <-sem:
					}
				}
				pc, ok := claim()
				if !ok {
					return
				}
				// Re-check: the token may have won the race against
				// cancellation or a peer's failure. Workers must not
				// dispatch queued instructions past either point.
				select {
				case <-cctx.Done():
					finish(fmt.Errorf("engine: canceled: %w", cctx.Err()))
					return
				case <-done:
					return
				default:
				}
				if err := e.exec(ctx, plan.Instrs[pc], worker, opt.Profiler); err != nil {
					finish(err)
					return
				}
				ctx.retire(plan.Instrs[pc])
				ctx.finished(worker)
				for _, u := range uses[pc] {
					if pending[u].Add(-1) == 0 {
						own.push(u)
						//stetho:ignore ctxselect sem has capacity n and carries at most one token per instruction; the send cannot block
						sem <- struct{}{}
					}
				}
				if completed.Add(1) == int64(n) {
					finish(nil)
					return
				}
			}
		}(w)
	}
	<-done
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
