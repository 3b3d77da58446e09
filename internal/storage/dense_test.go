package storage

import "testing"

// TestDenseForm: a dense OID BAT answers every accessor as the list it
// stands for, and the producers that see a contiguous result return it.
func TestDenseForm(t *testing.T) {
	d := denseOIDs(3, 5)
	if !d.dense {
		t.Fatal("a selection that keeps every row, sliced, is not dense")
	}
	want := []int64{3, 4, 5, 6, 7}
	if d.Len() != 5 || d.IntAt(4) != 7 || !equalI64(d.Ints(), want) || !equalI64(d.Clone().Ints(), want) {
		t.Errorf("dense [3,8): Len %d, IntAt(4) %d, Ints %v", d.Len(), d.IntAt(4), d.Ints())
	}
	if got := d.FootprintBytes(); got != 0 {
		t.Errorf("dense footprint %d bytes, want 0", got)
	}
	if s := d.Slice(1, 3); !s.dense || !equalI64(s.Ints(), []int64{4, 5}) {
		t.Errorf("slice of dense: dense %t, %v", s.dense, s.Ints())
	}
	a := d.Clone()
	a.AppendInt(-1)
	if a.dense || !equalI64(a.Ints(), append(want, -1)) || !equalI64(d.Ints(), want) {
		t.Errorf("append to dense: %v, source %v", a.Ints(), d.Ints())
	}

	// A probe where every row matches once is dense on the probe side; a
	// row without a match breaks it, and the oids before it are written.
	build := BuildJoinHash(FromInts(Int, []int64{10, 11, 12, 13}))
	lo, _, _ := build.Probe(FromInts(Int, []int64{13, 10, 12}))
	if !lo.dense || lo.Len() != 3 {
		t.Errorf("1:1 probe: dense %t, %v", lo.dense, lo.Ints())
	}
	lo, _, _ = build.Probe(FromInts(Int, []int64{13, 10, 99, 12}))
	if lo.dense || !equalI64(lo.Ints(), []int64{0, 1, 3}) {
		t.Errorf("probe with a miss: dense %t, %v", lo.dense, lo.Ints())
	}

	// Selections under contiguous candidates: a contiguous result is
	// dense, a scattered one a list, both at the candidates' offsets.
	col := FromInts(Int, []int64{5, 1, 1, 1, 5, 1})
	if got, _ := ThetaSelect(col, EQ, IntVal(1), denseOIDs(1, 4)); !got.dense || !equalI64(got.Ints(), []int64{1, 2, 3}) {
		t.Errorf("contiguous selection: dense %t, %v", got.dense, got.Ints())
	}
	if got, _ := RangeSelect(col, IntVal(1), IntVal(1), true, true, denseOIDs(2, 4)); got.dense || !equalI64(got.Ints(), []int64{2, 3, 5}) {
		t.Errorf("scattered selection: dense %t, %v", got.dense, got.Ints())
	}
}

// TestConcatAdjacent: packing slices that meet makes no copy — views of
// one base pack into a view of it, dense ranges into a dense range — and
// adjacency is the base the views carry, not where arrays lie.
func TestConcatAdjacent(t *testing.T) {
	col := benchColumn(1000)
	parts := []*BAT{col.Slice(0, 250), col.Slice(250, 250), col.Slice(250, 600), col.Slice(600, 1000)}
	got, _ := Concat(parts)
	if got.base != col || got.off != 0 || got.Len() != 1000 {
		t.Errorf("adjacent views: base %p off %d rows %d, want a view of %p", got.base, got.off, got.Len(), col)
	}
	// Slices of slices keep the base.
	mid := col.Slice(100, 900)
	if got, _ := Concat([]*BAT{mid.Slice(0, 10), mid.Slice(10, 20)}); got.base != col || got.off != 100 || got.Len() != 20 {
		t.Errorf("views of a view: base %p off %d rows %d", got.base, got.off, got.Len())
	}
	if got, _ := Concat([]*BAT{col.Slice(0, 10), col.Slice(11, 20)}); got.base != nil || got.Len() != 19 || got.IntAt(10) != col.IntAt(11) {
		t.Errorf("views with a gap were not copied")
	}
	if got, _ := Concat([]*BAT{denseOIDs(0, 5), denseOIDs(5, 3)}); !got.dense || !equalI64(got.Ints(), []int64{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("adjacent ranges: dense %t, %v", got.dense, got.Ints())
	}
	if got, _ := Concat([]*BAT{denseOIDs(0, 2), FromInts(OID, []int64{9}), denseOIDs(4, 2)}); got.dense || !equalI64(got.Ints(), []int64{0, 1, 9, 4, 5}) {
		t.Errorf("ranges and a list: dense %t, %v", got.dense, got.Ints())
	}
	// Two columns over the two halves of one array are neighbours in
	// memory, not slices of one base.
	arr := make([]int64, 20)
	for i := range arr {
		arr[i] = int64(i)
	}
	left, right := FromInts(Int, arr[:10]), FromInts(Int, arr[10:])
	got, _ = Concat([]*BAT{left.Slice(0, 10), right.Slice(0, 10)})
	if got.base != nil || !equalI64(got.Ints(), arr) {
		t.Errorf("neighbouring columns packed as one: base %p", got.base)
	}
}
