package stethoscope

import (
	"path/filepath"
	"strings"
	"testing"

	"stethoscope/internal/storage"
)

// TestDumpCSVEveryKind dumps a persisted table with one column of every
// storage.Kind. DumpCSV's private cell switch had no bit case and
// panicked on the first bool column; it now shares the result encoder.
func TestDumpCSVEveryKind(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cols := []storage.Column{{Name: "i", Kind: storage.Int}, {Name: "f", Kind: storage.Flt}, {Name: "s", Kind: storage.Str},
		{Name: "b", Kind: storage.Bool}, {Name: "d", Kind: storage.Date}, {Name: "o", Kind: storage.OID}}
	err = db.cat.Define("sys", "kinds", cols, map[string]*storage.BAT{
		"i": storage.FromInts(storage.Int, []int64{-7, 0, 42}),
		"f": storage.FromFloats([]float64{0.04, 1234567, -0.5}),
		"s": storage.FromStrings([]string{"MAIL", "", "a b"}),
		"b": storage.FromBools([]bool{true, false, true}),
		"d": storage.FromInts(storage.Date, []int64{8766, -1, 11016}),
		"o": storage.FromInts(storage.OID, []int64{0, 1, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := db.Persist(dir); err != nil {
		t.Fatal(err)
	}
	per, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer per.Close()
	const want = "i,f,s,b,d,o\n" +
		"-7,0.04,MAIL,true,1994-01-01,0\n" +
		"0,1.234567e+06,,false,1969-12-31,1\n" +
		"42,-0.5,a b,true,2000-02-29,2\n"
	for _, side := range []struct {
		name string
		db   *DB
	}{{"generated", db}, {"persisted", per}} {
		var got strings.Builder
		if err := side.db.DumpCSV(&got, "kinds", 0); err != nil {
			t.Fatalf("%s: %v", side.name, err)
		}
		if got.String() != want {
			t.Errorf("%s:\n%s\nwant\n%s", side.name, got.String(), want)
		}
	}
	var limited strings.Builder
	if err := per.DumpCSV(&limited, "sys.kinds", 2); err != nil {
		t.Fatal(err)
	}
	if limited.String() != want[:strings.LastIndex(want, "42,")] {
		t.Errorf("limit 2:\n%s", limited.String())
	}
}
