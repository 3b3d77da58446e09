package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stethoscope/internal/mal"
	"stethoscope/internal/metrics"
	"stethoscope/internal/profiler"
)

// instrMetrics reads the instruction-duration histogram and the sum of
// the per-worker instruction counters, and how many of those are
// registered.
func instrMetrics(reg *metrics.Registry) (count, sum, workerInstrs int64, workers int) {
	snap := reg.Snapshot()
	h, _ := snap.Get("stetho_engine_instr_duration_us")
	for w := 0; ; w++ {
		s, ok := snap.Get(fmt.Sprintf(`stetho_engine_worker_instructions_total{worker="%d"}`, w))
		if !ok {
			return h.Count, h.Sum, workerInstrs, w
		}
		workerInstrs += s.Value
	}
}

// TestInstrMetricsMergedPerRun: a run of an N-instruction plan adds
// exactly N to the instruction-duration count and to the per-worker
// counters, whether it runs sequentially or on the dataflow scheduler,
// profiled or not, and a second run adds N more. Under a profiler the
// histogram takes each instruction's duration from its done event.
func TestInstrMetricsMergedPerRun(t *testing.T) {
	plan := compileQ(t, "select l_tax from lineitem where l_partkey=1", 4)
	n := int64(len(plan.Instrs))
	for _, workers := range []int{1, 3} {
		for _, profiled := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/profiled=%t", workers, profiled), func(t *testing.T) {
				eng := New(testCat)
				reg := metrics.NewRegistry()
				eng.SetMetrics(reg)
				for run := int64(1); run <= 2; run++ {
					opt := Options{Workers: workers}
					var sink *profiler.OwnedSliceSink
					if profiled {
						sink = profiler.NewOwnedSliceSink(0)
						opt.Profiler = profiler.New(sink)
						clock := time.Unix(0, 0)
						opt.Profiler.SetClock(func() time.Time {
							clock = clock.Add(3 * time.Microsecond)
							return clock
						})
					}
					if _, err := eng.Run(plan, opt); err != nil {
						t.Fatal(err)
					}
					count, sum, instrs, registered := instrMetrics(reg)
					if count != run*n || instrs != run*n {
						t.Fatalf("after %d runs of %d instructions: histogram count %d, worker counters %d; want %d",
							run, n, count, instrs, run*n)
					}
					if registered != workers {
						t.Errorf("%d worker counters registered, want %d", registered, workers)
					}
					if !profiled {
						continue
					}
					var durs int64
					for _, e := range sink.Take() {
						if e.State == profiler.StateDone {
							durs += e.DurUs
						}
					}
					if run == 1 && sum != durs {
						t.Errorf("histogram sum %dµs, the done events' durations %dµs", sum, durs)
					}
				}
			})
		}
	}
}

// TestInstrMetricsMergedOnFailure: a run that fails part way still
// merges what it counted: every instruction that ran is in the
// histogram, the failing one too, and every one that completed is in
// the per-worker counters.
func TestInstrMetricsMergedOnFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := New(testCat)
			reg := metrics.NewRegistry()
			eng.SetMetrics(reg)
			var ran atomic.Int64
			eng.Register("test", "ok", func(ctx *Context, in *mal.Instr) error {
				ran.Add(1)
				ctx.setVal(in, 0, mal.Int64(1))
				return nil
			})
			boom := errors.New("boom")
			eng.Register("test", "fail", func(ctx *Context, in *mal.Instr) error {
				ran.Add(1)
				return boom
			})
			// Three independent instructions, then a failing one that
			// reads the first, then two that read the failing one and
			// never run.
			p := mal.NewPlan("")
			a := p.Emit1("test", "ok", mal.TInt)
			p.Emit1("test", "ok", mal.TInt)
			p.Emit1("test", "ok", mal.TInt)
			f := p.Emit1("test", "fail", mal.TInt, mal.VarArg(a))
			p.Emit1("test", "ok", mal.TInt, mal.VarArg(f))
			p.Emit1("test", "ok", mal.TInt, mal.VarArg(f))
			if _, err := eng.Run(p, Options{Workers: workers}); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			count, _, instrs, _ := instrMetrics(reg)
			if r := ran.Load(); count != r || instrs != r-1 {
				t.Errorf("%d instructions ran, one failed: histogram count %d, worker counters %d; want %d and %d",
					r, count, instrs, r, r-1)
			}
			if r := ran.Load(); r < 2 || r > 4 {
				t.Errorf("%d instructions ran, want the failing one, its producer, and at most the two others", r)
			}
		})
	}
}
