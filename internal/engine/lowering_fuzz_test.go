package engine

import (
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

// FuzzLowerModes: any text that parses and binds against the TPC-H
// schema lowers in every form — sequentially and at 7 mitosis
// partitions — without panicking, to a plan that validates and whose
// every opcode has a registered kernel. Seeded from the bundled queries
// and the lowering edge shapes.
func FuzzLowerModes(f *testing.F) {
	for _, q := range tpch.SweepQueries() {
		f.Add(q)
	}
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.0002, Seed: 1}); err != nil {
		f.Fatal(err)
	}
	eng := New(cat)
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		for _, opt := range []compiler.Options{{}, {Partitions: 7}} {
			// Bind per form: GroupAgg memoizes its schema on the tree.
			tree, err := algebra.Bind(stmt, cat)
			if err != nil {
				return
			}
			plan, err := compiler.Compile(tree, text, opt)
			if err != nil {
				continue // a shape the compiler rejects by error is fine
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("%q %+v: invalid plan: %v\n%s", text, opt, err, plan)
			}
			if _, err := eng.resolve(plan); err != nil {
				t.Fatalf("%q %+v: %v", text, opt, err)
			}
		}
	})
}
