package storage

import "testing"

// TestRecycleOwnership walks the allocation helper's ownership rule: an
// array returns to the free list when its last holder releases it — a
// view and a join hash over an integer build column are holders too —
// and a pinned array never returns.
func TestRecycleOwnership(t *testing.T) {
	inFlight(t)
	out0 := IntermediateBytes()
	cells, bk := take[int64](1000)
	for i := range cells {
		cells[i] = int64(i)
	}
	col := wrap(OID, cells, bk)
	view := col.Slice(100, 200)
	h := BuildJoinHash(col)
	if got := IntermediateBytes() - out0; got != bk.bytes {
		t.Fatalf("one taken array: intermediates grew by %d, want %d", got, bk.bytes)
	}
	col.Release()
	view.Release()
	if bk.refs.Load() != 1 {
		t.Fatalf("after the column and its view: %d references, want the hash's 1", bk.refs.Load())
	}
	lo, ro, err := h.Probe(FromInts(Int, []int64{150}))
	if err != nil || lo.Len() != 1 || ro.IntAt(0) != 150 {
		t.Fatalf("probe through the hash's reference: %v %v %v", lo, ro, err)
	}
	lo.Release()
	ro.Release()
	h.Release()
	if got := IntermediateBytes(); got != out0 {
		t.Errorf("all released: intermediates %d, want %d", got, out0)
	}
	again, bk2 := take[int64](990)
	if bk2 != bk || len(again) != 990 || cap(again) != 990 {
		t.Errorf("a take of at most the released array's length should reuse it")
	}

	kept := wrap(OID, again, bk2)
	kept.Pin()
	kept.Slice(0, 10).Release()
	kept.Release()
	if got := IntermediateBytes(); got != out0 {
		t.Errorf("pinned: intermediates %d, want %d", got, out0)
	}
	if cells, bk3 := take[int64](990); bk3 == bk {
		t.Errorf("a pinned array came back from the free list")
	} else {
		wrap(OID, cells, bk3).Release()
	}
}

// inFlight marks a run in flight until the test ends, as the engine does
// for each run: the free list keeps what is released while one is, or
// while something is checked out (TestIntermediateGauges, in the root
// package, sees it let go once neither holds).
func inFlight(t *testing.T) {
	t.Cleanup(Running())
}

// TestSizeClasses: a request's floor class has capacity at most n and
// its ceiling class at least n, each class a quarter or less above the
// one below, and a free array filed under its floor class serves every
// request that looks there.
func TestSizeClasses(t *testing.T) {
	capacity := func(k int) int { return (4 + k%4) << (4 + k/4) }
	for k := 0; k < nClasses; k++ {
		if k > 0 && 4*capacity(k) > 5*capacity(k-1) {
			t.Fatalf("class %d: capacity %d after %d", k, capacity(k), capacity(k-1))
		}
	}
	if capacity(nClasses-1) < recycleBytes {
		t.Fatalf("the largest class holds %d cells, below the %d-byte bound", capacity(nClasses-1), recycleBytes)
	}
	for n := minCells; n < 1<<16; n++ {
		floor, ceil := sizeClasses(n)
		if capacity(floor) > n || capacity(ceil) < n || ceil-floor > 1 || (ceil != floor) != (capacity(floor) != n) {
			t.Fatalf("n=%d: classes %d (%d cells) and %d (%d cells)", n, floor, capacity(floor), ceil, capacity(ceil))
		}
	}
}

// TestFreeListBound: releases past recycleBytes evict the arrays that
// have been free longest, so the list never exceeds its bound and keeps
// what was released last.
func TestFreeListBound(t *testing.T) {
	inFlight(t)
	const cells = 32 << 10 // 256 KiB of int64s
	var held []*backing
	for i := 0; i < 2*recycleBytes/(8*cells)+2; i++ {
		_, bk := take[int64](cells)
		held = append(held, bk)
	}
	for _, bk := range held {
		bk.release()
		if got := RecycledBytes(); got > recycleBytes {
			t.Fatalf("free list holds %d bytes, above its %d-byte bound", got, recycleBytes)
		}
	}
	kept := recycleBytes / (8 * cells)
	evicted := map[*backing]bool{}
	for _, bk := range held[:len(held)-kept] {
		evicted[bk] = true
	}
	for i := 0; i < kept; i++ {
		_, bk := take[int64](cells)
		if i == 0 && bk != held[len(held)-1] {
			t.Error("the last array released is not the first taken")
		}
		if evicted[bk] {
			t.Errorf("take %d got an array released before the last %d", i, kept)
		}
		defer bk.release()
	}
}
