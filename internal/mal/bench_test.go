package mal

import (
	"fmt"
	"testing"
)

// widePlan builds an n-instruction mitosis-shaped plan for benchmarks.
func widePlan(n int) *Plan {
	p := NewPlan("bench")
	bind := p.Emit1("sql", "bind", TBATInt,
		p.ConstOf(Str("sys")), p.ConstOf(Str("t")), p.ConstOf(Str("c")), p.ConstOf(Int64(0)))
	var outs []int
	for len(p.Instrs) < n-1 {
		s := p.Emit1("mat", "slice", TBATInt, VarArg(bind),
			p.ConstOf(Int64(int64(len(outs)))), p.ConstOf(Int64(64)))
		sel := p.Emit1("algebra", "thetaselect", TBATOID, VarArg(s),
			p.ConstOf(Str("<")), p.ConstOf(Int64(100)))
		outs = append(outs, p.Emit1("algebra", "leftjoin", TBATInt, VarArg(sel), VarArg(s)))
	}
	args := make([]Arg, len(outs))
	for i, o := range outs {
		args[i] = VarArg(o)
	}
	p.Emit1("mat", "pack", TBATInt, args...)
	return p
}

func BenchmarkPlanPrint(b *testing.B) {
	p := widePlan(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.String()
	}
}

// BenchmarkSchedule times building the dataflow schedule, which
// Schedule (and Deps) memoize per plan body.
func BenchmarkSchedule(b *testing.B) {
	for _, n := range []int{100, 1000} {
		p := widePlan(n)
		b.Run(fmt.Sprintf("instrs=%d", len(p.Instrs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.schedule()
			}
		})
	}
}

func BenchmarkPrune(b *testing.B) {
	p := widePlan(500)
	p.Emit0("querylog", "define", p.ConstOf(Str("q")))
	p.Renumber()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prune(p)
	}
}
