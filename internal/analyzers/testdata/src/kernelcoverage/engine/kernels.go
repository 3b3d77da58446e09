// Fixture for the kernelcoverage analyzer, register side: the same
// idioms internal/engine uses — literal pairs, range over map-literal
// keys, and "sub"+name concatenation.
package engine

type Engine struct{}

func (e *Engine) Register(mod, fn string, k func()) {}

func registerKernels(e *Engine) {
	e.Register("algebra", "select", nil)
	e.Register("algebra", "hashprobe", nil)
	e.Register("bat", "mirror", nil) // want "kernel bat.mirror is registered but neither compiler nor optimizer can emit it"
	for name := range map[string]int{"add": 0, "sub": 1} {
		e.Register("batcalc", name, nil)
		e.Register("aggr", "sub"+name, nil)
	}
	e.Register("batcalc", "and", nil)
	//stetho:ignore kernelcoverage kept for hand-written MAL plans fed straight to the engine
	e.Register("language", "pass", nil)
}
