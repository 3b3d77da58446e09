package integration

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/engine"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/planner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

// TestSweepsLeaveCatalogIntact: no kernel writes into a column it reads.
// A kernel output may be a view of its input — a projection through a
// contiguous candidate list is a slice of the column it gathers from,
// and a pack of adjacent slices is a slice of their base — so a sweep's
// intermediates and results can alias the catalog's own arrays. Every
// catalog column is checksummed, every sweep statement runs over that
// catalog in every lowering (sequential, static mitosis at 7 and 64
// partitions) with its result rendered — and streamed, as DB.Stream runs
// it, at 7 and Auto partitions with every batch rendered while the run
// goes on — and every checksum must come out as it went in.
func TestSweepsLeaveCatalogIntact(t *testing.T) {
	cat := loadCatalog(t, 0.005, 42)
	before := catalogSums(t, cat)
	pipeline := optimizer.Default()
	pl := planner.Planner{Cat: cat, Pipeline: pipeline, PassSpec: pipeline.Spec()}
	modes := []struct {
		name   string
		parts  int
		stream bool
	}{
		{"sequential", 1, false},
		{"partitions=7", 7, false},
		{"partitions=64", 64, false},
		{"stream,partitions=7", 7, true},
		{"stream,partitions=auto", adaptive.Auto, true},
	}
	for _, q := range tpch.SweepQueries() {
		for _, m := range modes {
			c, err := pl.Compile(q, m.parts, false)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, m.name, err)
			}
			opt := engine.Options{Workers: 4}
			if m.stream {
				opt.Emit = func(names []string, cols []*storage.BAT) error {
					_, err := storage.WriteText(io.Discard, names, cols, cols[0].Len(), '\t')
					return err
				}
			}
			res, err := engine.New(cat).Run(c.Plan, opt)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, m.name, err)
			}
			if _, err := res.WriteText(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := catalogSums(t, cat)
	for col, sum := range before {
		if after[col] != sum {
			t.Errorf("catalog column %s changed while the sweeps ran", col)
		}
	}
}

// catalogSums returns the SHA-256 of every catalog column's kind and
// cells, keyed schema.table.column.
func catalogSums(t *testing.T, cat *storage.Catalog) map[string][32]byte {
	t.Helper()
	sums := make(map[string][32]byte)
	for _, name := range cat.TableNames() {
		schema, table, _ := strings.Cut(name, ".")
		tab, _ := cat.Table(schema, table)
		for _, col := range tab.Columns {
			b, err := cat.Bind(schema, table, col.Name)
			if err != nil {
				t.Fatal(err)
			}
			sums[name+"."+col.Name] = columnSum(b)
		}
	}
	return sums
}

func columnSum(b *storage.BAT) [32]byte {
	h := sha256.New()
	var cell [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(cell[:], x)
		h.Write(cell[:])
	}
	word(uint64(b.Kind()))
	switch b.Kind() {
	case storage.Flt:
		for _, f := range b.Flts() {
			word(math.Float64bits(f))
		}
	case storage.Str:
		for _, c := range b.Codes() {
			word(uint64(c))
		}
		for i, d := 0, b.Dict(); i < d.Len(); i++ {
			io.WriteString(h, d.At(uint32(i)))
			h.Write([]byte{0})
		}
	case storage.Bool:
		for _, x := range b.Bools() {
			if x {
				word(1)
			} else {
				word(0)
			}
		}
	default:
		for _, x := range b.Ints() {
			word(uint64(x))
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
