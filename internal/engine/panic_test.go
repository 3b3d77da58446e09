package engine

import (
	"errors"
	"strings"
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/mal"
	"stethoscope/internal/metrics"
	"stethoscope/internal/sql"
)

// TestKernelPanicIsContained: a kernel that panics — on the run's own
// goroutine or on a dataflow worker — costs that run an error naming the pc and opcode (stack in the
// wrapped *KernelPanic, not in the one-line message), and the engine,
// its progress table and its metrics keep serving.
func TestKernelPanicIsContained(t *testing.T) {
	const q = "select v from tiny where k >= 2"
	compile := func(opt compiler.Options) *mal.Plan {
		t.Helper()
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := algebra.Bind(stmt, edgeCat)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := compiler.Compile(tree, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	cases := []struct {
		name string
		plan *mal.Plan
		opt  Options
		// where the panic must be reported: the opcode's own pc.
		want []string
	}{
		{"sequential", compile(compiler.Options{}), Options{Workers: 1},
			[]string{"engine: pc=", " algebra.thetaselect: kernel panic: boom"}},
		{"dataflow", compile(compiler.Options{Partitions: 4}), Options{Workers: 4},
			[]string{"engine: pc=", " algebra.thetaselect: kernel panic: boom"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(edgeCat)
			reg := metrics.NewRegistry()
			eng.SetMetrics(reg)
			real := eng.Replace("algebra", "thetaselect", func(*Context, *mal.Instr) error { panic("boom") })

			res, err := eng.Run(tc.plan, tc.opt)
			if err == nil {
				t.Fatalf("run succeeded with a panicking kernel: %v", res)
			}
			msg := err.Error()
			at := 0
			for _, w := range tc.want {
				i := strings.Index(msg[at:], w)
				if i < 0 {
					t.Fatalf("error %q does not carry %q (in order %q)", msg, w, tc.want)
				}
				at += i + len(w)
			}
			if strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") {
				t.Errorf("the stack leaked into the message: %q", msg)
			}
			var kp *KernelPanic
			if !errors.As(err, &kp) {
				t.Fatalf("error %q does not wrap a *KernelPanic", msg)
			}
			if kp.Value != "boom" || !strings.Contains(string(kp.Stack), "panic_test.go") {
				t.Errorf("KernelPanic{Value: %v} stack does not reach the panicking kernel:\n%s", kp.Value, kp.Stack)
			}
			if left := eng.Progress(); len(left) != 0 {
				t.Errorf("failed run still in the progress table: %+v", left)
			}

			// The same engine runs the same plan once the kernel behaves.
			eng.Replace("algebra", "thetaselect", real)
			res, err = eng.Run(tc.plan, tc.opt)
			if err != nil {
				t.Fatalf("run after the contained panic: %v", err)
			}
			if got := res.Rows(); got != 3 {
				t.Errorf("rows after the contained panic = %d, want 3", got)
			}
			if runs := reg.Counter("stetho_engine_runs_total").Load(); runs != 2 {
				t.Errorf("stetho_engine_runs_total = %d, want 2", runs)
			}
		})
	}
}
