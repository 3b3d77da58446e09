package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the one allocation helper behind the kernels' fresh
// outputs, and the free list it recycles released outputs through.
//
// A kernel output that comes from take is a typed array owned by a
// backing: an owner count, the array and the header of the BAT wrap
// makes over it. The count lives on the backing,
// not on the BAT, because several BATs can share one array — a Slice
// view, a JoinHash whose keys are its integer build column — and the
// array may only be reused once the last of them is gone. Each BAT (or
// JoinHash) that shares the array holds one reference and drops it with
// Release; the last drop puts the backing on the free list, where a
// later take of its cell type and size finds it. A backing that escapes
// the run — a result column, a catalog column — is pinned and never
// returns.
//
// Nothing is zeroed on the way back out: a recycled array holds whatever
// its last user wrote, so a kernel that takes a buffer writes every cell
// it returns, and one that accumulates (counts, sums) must clear what it
// takes first. Under the stethopoison build tag every array take hands
// out, and every array that comes back, is overwritten with a sentinel
// (poison_on.go), so a kernel that reads a cell it did not write, or a
// holder that reads after its last release, produces a wrong answer the
// byte-identity sweeps catch.

// recycleBytes bounds what the free list holds. The list is live heap,
// so it raises the collector's heap goal, and with it peak memory, by up
// to twice its size; the bound is where recycling stops paying for that.
// On serve-analytic's statements at SF 0.05 (2 connections, 2 cores) a
// list of size-rounded arrays that never emptied served 38 % of the
// bytes taken at 2 MiB, 38 % at 4 MiB, 41 % at 8 MiB and 49 % at 16 MiB;
// in alternating serve-analytic runs an 8 MiB list gave back about half
// of the peak-RSS saving that releasing at last use makes, a 2 MiB one
// none that the runs could tell. As built (exact-size arrays, emptied at
// idle) the 2 MiB list serves 27 %. A buffer larger than the bound is
// never kept.
const recycleBytes = 2 << 20

// minCells is the smallest array the helper makes: a request for fewer
// cells gets this many.
const minCells = 64

// nClasses covers every size class up to recycleBytes of one-byte cells
// (sizeClasses).
const nClasses = 64

// elem is the cell types a backing array holds: the integer family
// (Int, Date, OID), Flt, the codes of a Str column, and Bool.
type elem interface {
	int64 | float64 | uint32 | bool
}

// headerOnly is the free list of backings with no array (takeHeader),
// beside the four of elemIndex.
const headerOnly = 4

// backing owns one recycled array. refs counts the BATs (and join
// hashes) that will release it; pinned marks an array that escaped and
// never returns.
type backing struct {
	refs   atomic.Int64
	pinned atomic.Bool
	cell   int            // which free list: elemIndex
	class  int            // the floor size class of cells (sizeClasses)
	bytes  int64          // the array's full size
	arr    unsafe.Pointer // the array's first cell
	cells  int            // the array's full capacity

	// bat is the header of the BAT wrap makes over the array. Made with
	// the backing, it lets a fresh output cost its array and one object,
	// as a plain BAT does, and a recycled one neither; it is zeroed when
	// the backing goes on the free list.
	bat BAT

	// While free: age links the free list in release order, peers the
	// free backings of the same cell type and class, newest first.
	// Guarded by freeMu.
	age, peers links
}

// links are one backing's place in a doubly linked list.
type links struct{ prev, next *backing }

// array returns the backing's whole array as cells of T.
func array[T elem](bk *backing) []T { return unsafe.Slice((*T)(bk.arr), bk.cells) }

// The free list. A free array is filed under the largest size class its
// capacity reaches, and a take looks in the classes around its request
// (take); a release that would push the list past recycleBytes first
// evicts the longest-free backings, whatever their class, so what the
// list holds is what was released last — the sizes the running plans
// are cycling through now — and a class nobody asks for any more ages
// out. The list is emptied when the engine goes idle — no run in flight
// (Running) and nothing checked out — so an idle engine holds no
// recycled array. Nothing checked out alone is no sign of idleness: a
// run whose live values are views and dense lists holds no array
// between two of its instructions.
var (
	freeMu         sync.Mutex
	oldest, newest *backing              // release order; guarded by freeMu
	classes        [5][nClasses]*backing // newest free backing per elemIndex (or headerOnly) and class; guarded by freeMu
	runs           int                   // runs in flight (Running); guarded by freeMu

	// outBytes is the size of every backing taken and neither returned
	// nor pinned. freeBytes is what the free list holds. Both are
	// guarded by freeMu.
	outBytes, freeBytes int64
)

// IntermediateBytes reports the bytes of the allocation helper's arrays
// that are checked out, in the whole process: taken for a kernel output
// and not yet released or pinned. Outputs a kernel makes without the
// helper are not counted. It is 0 whenever no plan runs.
func IntermediateBytes() int64 {
	freeMu.Lock()
	defer freeMu.Unlock()
	return outBytes
}

// RecycledBytes reports the bytes the free list holds: at most
// recycleBytes, and 0 whenever no plan runs.
func RecycledBytes() int64 {
	freeMu.Lock()
	defer freeMu.Unlock()
	return freeBytes
}

func elemIndex[T elem]() int {
	var z T
	switch any(z).(type) {
	case int64:
		return 0
	case float64:
		return 1
	case uint32:
		return 2
	}
	return 3
}

// sizeClasses returns the size classes around n >= minCells cells:
// floor, the largest whose capacity is at most n, and ceil, the smallest
// whose capacity is at least n. Class k has capacity (4 + k%4) << (4 +
// k/4): 64, 80, 96, 112, 128, 160, … — four per power of two.
func sizeClasses(n int) (floor, ceil int) {
	shift := bits.Len(uint(n)) - 3
	q := n >> shift // 4..7
	floor = 4*(shift-4) + q - 4
	if q<<shift == n {
		return floor, floor
	}
	return floor, floor + 1
}

// take returns an n-cell buffer (length and capacity n) for a kernel to
// overwrite, and the backing that owns it with one reference, the
// caller's. Its cells hold whatever the last user left. The array comes
// from the free list when one there is long enough — the newest of n's
// floor class if it reaches n, else the newest of its ceiling class,
// which always does — and is made with exactly max(n, minCells) cells
// otherwise, so an array that is never released is no larger than a
// plain allocation would be. A request too large to keep is a plain
// allocation with a nil backing, which every operation below accepts and
// the collector reclaims.
func take[T elem](n int) ([]T, *backing) {
	m := max(n, minCells)
	size := int64(unsafe.Sizeof(*new(T)))
	if int64(m)*size > recycleBytes {
		out := make([]T, n)
		poison(out)
		return out, nil
	}
	e := elemIndex[T]()
	floor, ceil := sizeClasses(m)
	freeMu.Lock()
	bk := classes[e][floor]
	if bk == nil || bk.cells < n {
		bk = classes[e][ceil]
	}
	if bk != nil {
		bk.unlink()
		outBytes += bk.bytes
	} else {
		outBytes += int64(m) * size
	}
	freeMu.Unlock()
	if bk == nil {
		arr := make([]T, m)
		bk = &backing{cell: e, class: floor, bytes: int64(m) * size, arr: unsafe.Pointer(unsafe.SliceData(arr)), cells: m}
	}
	bk.refs.Store(1)
	arr := array[T](bk)
	poison(arr)
	return arr[:n:n], bk
}

// grow is how a kernel's output outgrows the buffer it took: it returns
// out with room for at least k more cells — out itself when it has the
// room, else its cells moved to a buffer from take of twice its capacity
// (or enough), the old one released — and the backing that owns it.
func grow[T elem](out []T, bk *backing, k int) ([]T, *backing) {
	if cap(out)-len(out) >= k {
		return out, bk
	}
	more, nbk := take[T](max(2*cap(out), len(out)+k))
	n := copy(more, out)
	bk.release()
	return more[:n], nbk
}

// takeHeader returns a backing with no array and one reference, for a
// BAT that needs a header and no cells — a dense OID BAT — so that its
// header, too, comes back for the next one. It is 0 bytes to the
// counters and is dropped with the rest of the list at idle.
func takeHeader() *backing {
	freeMu.Lock()
	bk := classes[headerOnly][0]
	if bk != nil {
		bk.unlink()
	}
	freeMu.Unlock()
	if bk == nil {
		bk = &backing{cell: headerOnly}
	}
	bk.refs.Store(1)
	return bk
}

// retain takes one more reference for a new holder of the array.
func (bk *backing) retain() {
	if bk != nil && !bk.pinned.Load() {
		bk.refs.Add(1)
	}
}

// release drops one reference; the last one returns the array to the
// free list, or to the collector when the list is full. A pinned array
// keeps its references: it never returns.
func (bk *backing) release() {
	if bk == nil || bk.pinned.Load() || bk.refs.Add(-1) != 0 {
		return
	}
	if poisoned {
		bk.poison()
	}
	freeMu.Lock()
	if outBytes -= bk.bytes; idle() {
		dropIdle()
	} else {
		for oldest != nil && freeBytes+bk.bytes > recycleBytes {
			oldest.unlink()
		}
		bk.push()
	}
	freeMu.Unlock()
}

// Running marks a run in flight until the func it returns is called:
// while any run is in flight the free list keeps what is released, even
// at moments when nothing is checked out.
func Running() (end func()) {
	freeMu.Lock()
	runs++
	freeMu.Unlock()
	return func() {
		freeMu.Lock()
		if runs--; idle() {
			dropIdle()
		}
		freeMu.Unlock()
	}
}

// idle reports that no run is in flight and nothing is checked out. The
// caller holds freeMu.
func idle() bool { return runs == 0 && outBytes == 0 }

// dropIdle empties the free list: an idle engine keeps nothing for the
// next run. The caller holds freeMu.
func dropIdle() {
	for oldest != nil {
		oldest.unlink()
	}
}

// push puts a released backing on the free list. The caller holds freeMu.
func (bk *backing) push() {
	bk.bat = BAT{}
	bk.age = links{prev: newest}
	if newest != nil {
		newest.age.next = bk
	} else {
		oldest = bk
	}
	newest = bk
	head := &classes[bk.cell][bk.class]
	bk.peers = links{next: *head}
	if *head != nil {
		(*head).peers.prev = bk
	}
	*head = bk
	freeBytes += bk.bytes
}

// unlink takes a backing off the free list, for a take or as an
// eviction. The caller holds freeMu.
func (bk *backing) unlink() {
	a, c := bk.age, bk.peers
	if a.prev != nil {
		a.prev.age.next = a.next
	} else {
		oldest = a.next
	}
	if a.next != nil {
		a.next.age.prev = a.prev
	} else {
		newest = a.prev
	}
	if c.prev != nil {
		c.prev.peers.next = c.next
	} else {
		classes[bk.cell][bk.class] = c.next
	}
	if c.next != nil {
		c.next.peers.prev = c.prev
	}
	bk.age, bk.peers = links{}, links{}
	freeBytes -= bk.bytes
}

// pin marks the array as escaped: it never returns, and it no longer
// counts as an intermediate. The caller holds a reference, so the count
// cannot reach zero before the mark is set.
func (bk *backing) pin() {
	if bk == nil || !bk.pinned.CompareAndSwap(false, true) {
		return
	}
	freeMu.Lock()
	if outBytes -= bk.bytes; idle() {
		dropIdle()
	}
	freeMu.Unlock()
}

// Release drops the reference b holds on its array, returning the array
// for reuse when b was its last holder. The engine calls it when a
// variable slot dies; b must not be read afterwards. A BAT whose array
// is not recycled (a catalog column, a plain allocation) ignores it.
func (b *BAT) Release() { b.own.release() }

// Pin marks b's array as escaping whatever produced it — a result
// column, a catalog column: it is never recycled, whoever else releases
// it.
func (b *BAT) Pin() { b.own.pin() }

// poison overwrites the backing's whole array (poison mode only).
func (bk *backing) poison() {
	switch bk.cell {
	case 0:
		poison(array[int64](bk))
	case 1:
		poison(array[float64](bk))
	case 2:
		poison(array[uint32](bk))
	default:
		poison(array[bool](bk))
	}
}

// poison fills cells with the sentinel of their type (poison mode only):
// an out-of-range oid and dictionary code, -1e300, true.
func poison[T elem](cells []T) {
	if !poisoned {
		return
	}
	var s T
	switch p := any(&s).(type) {
	case *int64:
		*p = 0x5A5A5A5A5A5A5A5A
	case *float64:
		*p = -1e300
	case *uint32:
		*p = 0xA5A5A5A5
	case *bool:
		*p = true
	}
	for i := range cells {
		cells[i] = s
	}
}
