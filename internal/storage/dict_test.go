package storage

import (
	"slices"
	"testing"
)

// TestFromStringsDictionary: a string column's dictionary is its distinct
// values in ascending order, every row is the code of its value, and code
// order is string order.
func TestFromStringsDictionary(t *testing.T) {
	for name, vals := range map[string][]string{
		"unsorted":  {"SHIP", "AIR", "", "MAIL", "AIR", "SHIP", "\x00", ""},
		"ascending": {"Customer#01", "Customer#02", "Customer#10"},
		"one":       {"x", "x", "x"},
		"empty":     {},
	} {
		b := FromStrings(vals)
		d := b.Dict()
		want := slices.Compact(slices.Sorted(slices.Values(vals)))
		if !slices.Equal(d.strs, want) {
			t.Errorf("%s: dictionary %q, want %q", name, d.strs, want)
		}
		if got := b.Strs(); !slices.Equal(got, vals) {
			t.Errorf("%s: rows %q, want %q", name, got, vals)
		}
		for i, c := range b.Codes() {
			if d.At(c) != vals[i] {
				t.Errorf("%s: row %d has code %d (%q), want %q", name, i, c, d.At(c), vals[i])
			}
		}
	}
}

// TestDerivedColumnsShareDictionary: a slice, a projection, a min or max
// and a concatenation of slices keep the column's dictionary, so the
// kernels over them never translate; concatenating different
// dictionaries merges them, and an empty BAT adopts what is appended.
func TestDerivedColumnsShareDictionary(t *testing.T) {
	col := FromStrings([]string{"R", "A", "N", "A", "R", "N"})
	d := col.Dict()
	proj, err := Project(FromInts(OID, []int64{4, 0, 2}), col)
	if err != nil {
		t.Fatal(err)
	}
	low, _ := Aggr(AggrMin, col, nil, 0)
	packed, err := Concat([]*BAT{col.Slice(0, 2), col.Slice(2, 6)})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*BAT{"slice": col.Slice(1, 3), "project": proj, "min": low, "concat": packed, "clone": col.Clone()} {
		if b.Dict() != d {
			t.Errorf("%s: dictionary %p, want the column's %p", name, b.Dict(), d)
		}
	}
	if low.StrAt(0) != "A" {
		t.Errorf("min = %q, want A", low.StrAt(0))
	}

	other := FromStrings([]string{"B", "A", "Z"})
	merged, err := Concat([]*BAT{col, other})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "N", "R", "Z"}; !slices.Equal(merged.Dict().strs, want) {
		t.Errorf("merged dictionary %q, want %q", merged.Dict().strs, want)
	}
	if got, want := merged.Strs(), append(col.Strs(), other.Strs()...); !slices.Equal(got, want) {
		t.Errorf("merged rows %q, want %q", got, want)
	}

	grown := New(Str, 0)
	if err := grown.Append(col); err != nil {
		t.Fatal(err)
	}
	if grown.Dict() != d {
		t.Error("an empty BAT did not adopt the appended column's dictionary")
	}
	appendStr(grown, "N")
	if grown.Dict() != d {
		t.Error("appending a string the dictionary holds replaced it")
	}
	appendStr(grown, "B")
	if got, want := grown.Strs(), append(col.Strs(), "N", "B"); !slices.Equal(got, want) {
		t.Errorf("after appendStr: %q, want %q", got, want)
	}
	if !slices.Equal(col.Strs(), []string{"R", "A", "N", "A", "R", "N"}) {
		t.Errorf("appending to a copy changed the column: %q", col.Strs())
	}
}

// TestCodeOpMatchesStrings: for every operator and operands inside,
// between, below and above the dictionary's entries, the comparison of
// codes codeOp and codeRange choose holds exactly where the comparison of
// strings does.
func TestCodeOpMatchesStrings(t *testing.T) {
	d := FromStrings([]string{"b", "d", "f"}).Dict()
	operands := []string{"", "a", "b", "c", "d", "e", "f", "g"}
	for _, v := range operands {
		for _, op := range allCmps {
			cop, code := d.codeOp(op, v)
			for c, x := range d.strs {
				if got, want := holds(cop, uint32(c), code), holds(op, x, v); got != want {
					t.Errorf("%q %s %q: codes say %t, strings %t", x, op, v, got, want)
				}
			}
		}
		for _, w := range operands {
			for inc := 0; inc < 4; inc++ {
				loInc, hiInc := inc&1 != 0, inc&2 != 0
				lo, hi := d.codeRange(v, w, loInc, hiInc)
				for c, x := range d.strs {
					got := uint32(c) >= lo && uint32(c) < hi
					want := (x > v || loInc && x == v) && (x < w || hiInc && x == w)
					if got != want {
						t.Errorf("%q in (%q, %q) inc %t/%t: codes say %t, strings %t", x, v, w, loInc, hiInc, got, want)
					}
				}
			}
		}
	}
}

// holds is "x op v" spelled out for a string or a code.
func holds[T uint32 | string](op CmpOp, x, v T) bool {
	switch op {
	case EQ:
		return x == v
	case NE:
		return x != v
	case LT:
		return x < v
	case LE:
		return x <= v
	case GT:
		return x > v
	}
	return x >= v
}
