// Fixture for the kernelcoverage analyzer, rewrite side: the
// optimizer's in-place `instr.Op = mal.OpOf(module, function)` rewrites
// must land on a registered kernel.
package optimizer

type opcode struct{}

type instr struct {
	Op *opcode
}

type malPackage struct{}

func (malPackage) OpOf(mod, fn string) *opcode { return nil }

var mal malPackage

func rewriteProbe(probe *instr) {
	probe.Op = mal.OpOf("algebra", "hashprobe")
}

func badRewrite(p *instr) {
	p.Op = mal.OpOf("algebra", "nothere") // want "mal opcode algebra.nothere is emitted here but registerKernels installs no such kernel"
}
