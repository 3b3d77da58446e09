package storage

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the hash kernels — join build and probe, grouping —
// and the one index layout they share, MonetDB's: an array of bucket
// heads and an array of links, both int32, beside the keys themselves.
// A hash's top bits name a bucket; heads[bucket] is the bucket's first
// member and link[member] the next (both 1-based, 0 ends the chain); a
// member is a build row for a join and a group for a grouping. Keys are
// int64: a column of another kind is mapped onto int64 first (int64Keys),
// so the row loops know one key type. Nothing here outlives the call
// that built it except through a JoinHash, and no cross-query state but
// the allocation helper's free list (recycle.go), which the probe and
// grouping outputs come from.

// maxRows is the most rows a join build side or a grouped column may
// have: heads and links hold row numbers and group ids as int32.
const maxRows = math.MaxInt32

func checkRows(what string, n int) error {
	if n > maxRows {
		return fmt.Errorf("storage: %s of %d rows exceeds the %d rows a hash index addresses", what, n, maxRows)
	}
	return nil
}

// newHeads returns empty bucket heads for n members — the smallest power
// of two that is at least n, so chains average under one member — and
// the shift that turns a hash into a bucket. The size depends on n alone.
func newHeads(n int) (heads []int32, shift uint) {
	lg := 3
	if n > 1<<lg {
		lg = bits.Len(uint(n - 1))
	}
	return make([]int32, 1<<lg), uint(64 - lg)
}

// hashKey is multiplicative (Fibonacci) hashing: the product's top bits
// depend on every bit of the key, so keys that are multiples of the
// table size — the classic failure of a low-bits mask — spread like any
// others. prev is the group a refinement starts from, 0 otherwise.
func hashKey(prev, key int64) uint64 {
	return (uint64(prev)*0xD6E8FEB86659FD93 ^ uint64(key)) * 0x9E3779B97F4A7C15
}

// JoinHash is the materialized build side of a hash join: the value
// index of one key column. Build once with BuildJoinHash, then Probe
// any number of times — probes are read-only, so one JoinHash may be
// probed concurrently from multiple goroutines (the partitioned join
// probes every mitosis slice against the same build in parallel).
type JoinHash struct {
	kind Kind
	// keys are the build keys as int64s (int64Keys); heads and next index
	// them. A chain holds every build row of its bucket in build order.
	keys  []int64
	heads []int32
	shift uint
	next  []int32
	// dict is a Str build side's dictionary: its codes are the keys, and
	// a probe column over another dictionary is translated into it.
	dict *Dict
	err  error
	// own is the build column's recycled array when keys is that array
	// (an integer build side): the hash holds a reference to it.
	own *backing
}

// BuildJoinHash indexes the build-side key column r (MAL's
// algebra.hashbuild). Chains are filled back to front, so each runs in
// build order and probe output for equal keys matches the nested order
// the packed join emits. A build side of more than maxRows rows is
// refused: the JoinHash carries the error and every Probe returns it.
func BuildJoinHash(r *BAT) *JoinHash {
	h := &JoinHash{kind: r.kind}
	n := r.Len()
	if h.err = checkRows("join build side", n); h.err != nil {
		return h
	}
	h.dict = r.dict
	h.keys = int64Keys(r, h.dict, true)
	if r.kind.usesInts() {
		h.own = r.own
		h.own.retain()
	}
	h.heads, h.shift = newHeads(n)
	h.next = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		b := hashKey(0, h.keys[i]) >> h.shift
		h.next[i] = h.heads[b]
		h.heads[b] = int32(i + 1)
	}
	return h
}

// Probe matches the probe-side key column l against the build index and
// returns matching oid pairs (aligned probe/build oid BATs), ordered by
// probe oid — the order downstream projections rely on for stable
// results. Safe for concurrent use.
func (h *JoinHash) Probe(l *BAT) (lOIDs, rOIDs *BAT, err error) {
	if l.kind != h.kind && !(l.kind.usesInts() && h.kind.usesInts()) {
		return nil, nil, fmt.Errorf("storage: join %s with %s", l.kind, h.kind)
	}
	if h.err != nil {
		return nil, nil, h.err
	}
	keys := int64Keys(l, h.dict, false)
	// Sized for one match per probe row: exact for a foreign key that
	// always finds its primary key, never short for one that sometimes
	// does not, and one growth step away from a mildly many-to-many join.
	lo, lbk := take[int64](len(keys))
	ro, rbk := take[int64](len(keys))
	lo, ro = lo[:0], ro[:0]
	for i, k := range keys {
		for r := h.heads[hashKey(0, k)>>h.shift]; r != 0; r = h.next[r-1] {
			if h.keys[r-1] == k {
				lo = append(lo, int64(i))
				ro = append(ro, int64(r-1))
			}
		}
	}
	return wrap(OID, lo, settle(lo, lbk)), wrap(OID, ro, settle(ro, rbk)), nil
}

// Release drops the hash's reference to its build column's array; the
// hash must not be probed afterwards.
func (h *JoinHash) Release() { h.own.release() }

// HashJoin computes the equi-join of l and r on value equality and returns
// matching oid pairs (aligned left and right oid BATs). The right side
// is hashed; the left side probes, keeping the output ordered by left
// oid. This is MAL's algebra.join — the packed form of
// BuildJoinHash + Probe.
func HashJoin(l, r *BAT) (lOIDs, rOIDs *BAT, err error) {
	h := BuildJoinHash(r)
	defer h.Release()
	return h.Probe(l)
}

// int64Keys maps a key column onto int64 so that two cells are equal keys
// exactly when their int64s are. build says which side of a join (or a
// grouping, which is all build) the column is on; dict is the build
// side's dictionary when the key is a string.
//
//   - Int, Date, OID: the backing array itself, no copy.
//   - Bool: 0 and 1.
//   - Flt: the IEEE bits, with -0 folded onto +0 (they are equal keys)
//     and every NaN given a pattern of its own — NaN never equals
//     anything, itself included — that no other row of either side has:
//     the row number in the payload, the side in bit 32.
//   - Str: the code of the string in dict. A probe column over another
//     dictionary is translated; a string dict lacks gets -1, which no
//     build key is.
func int64Keys(b *BAT, dict *Dict, build bool) []int64 {
	switch {
	case b.kind.usesInts():
		return b.ints
	case b.kind == Flt:
		nan := uint64(0x7FF8000000000000)
		if build {
			nan |= 1 << 32
		}
		out := make([]int64, len(b.flts))
		for i, f := range b.flts {
			switch {
			case f == 0:
			case f != f:
				out[i] = int64(nan | uint64(i))
			default:
				out[i] = int64(math.Float64bits(f))
			}
		}
		return out
	case b.kind == Str:
		out := make([]int64, len(b.codes))
		if b.dict == dict {
			for i, c := range b.codes {
				out[i] = int64(c)
			}
			return out
		}
		t := translate(b.dict, dict)
		for i, c := range b.codes {
			out[i] = t[c]
		}
		return out
	default:
		out := make([]int64, len(b.bools))
		for i, x := range b.bools {
			if x {
				out[i] = 1
			}
		}
		return out
	}
}

// Group assigns a dense group id to each row of b, optionally refining an
// existing grouping (MAL's group.subgroup with a previous groups column).
// It returns the per-row group ids, the extents (the oid of the first row
// of each group), and the number of groups. Group ids are numbered in
// order of first appearance.
func Group(b, prev *BAT) (groups, extents *BAT, ngroups int, err error) {
	n := b.Len()
	if prev != nil && prev.Len() != n {
		return nil, nil, 0, fmt.Errorf("storage: group input %d rows, prev grouping %d rows", n, prev.Len())
	}
	if err := checkRows("grouped column", n); err != nil {
		return nil, nil, 0, err
	}
	var pg []int64
	if prev != nil {
		pg = prev.ints
	}
	ids, bk := take[int64](n)
	var firsts []int64
	switch {
	case b.kind == Str:
		if pairs := codePairs(pg, b.dict.Len()); pairs <= n+groupRoom {
			firsts = groupCodes(ids, pg, b.codes, b.dict.Len(), pairs)
		} else {
			firsts = groupKeys(ids, pg, b.codes)
		}
	default:
		firsts = groupKeys(ids, pg, int64Keys(b, nil, true))
	}
	return wrap(OID, ids, bk), FromInts(OID, firsts), len(firsts), nil
}

// groupRoom is how many groups a grouping starts with room for. The
// number of groups is not known up front and is usually far below the
// number of rows, so the index starts small and doubles — relinking the
// groups from their own entries, no row is read again — whenever it is
// full: O(log groups) allocations, whatever the row count.
const groupRoom = 16

// group is one entry of a grouping's index: the pair that identifies the
// group and the next group of its bucket (1-based, 0 ends the chain).
type group struct {
	prev, key int64
	link      int32
}

// codePairs returns how many (prev, code) pairs a string column of a
// dictionary of entries can form under the grouping prev (nil: one
// group), or the largest int when prev holds a negative group.
func codePairs(prev []int64, entries int) int {
	groups := int64(1)
	for _, p := range prev {
		if p < 0 {
			return math.MaxInt
		}
		groups = max(groups, p+1)
	}
	if groups > math.MaxInt/int64(max(entries, 1)) {
		return math.MaxInt
	}
	return int(groups) * entries
}

// groupCodes numbers the distinct (prev[i], codes[i]) pairs — or the
// distinct codes, under a nil prev — in order of first appearance through
// a table with a slot per possible pair: no hashing, for a column with
// no more pairs than rows (Q1's two flags, a grouping by nation name).
// ids gets each row's number; firsts is each number's first row.
func groupCodes(ids, prev []int64, codes []uint32, entries, pairs int) (firsts []int64) {
	slot := make([]int32, pairs) // 1 + the group of each pair, 0 for none yet
	firsts = make([]int64, 0, min(pairs, groupRoom))
	for i, c := range codes {
		at := int(c)
		if prev != nil {
			at += int(prev[i]) * entries
		}
		g := slot[at]
		if g == 0 {
			firsts = append(firsts, int64(i))
			g = int32(len(firsts))
			slot[at] = g
		}
		ids[i] = int64(g - 1)
	}
	return firsts
}

// groupKeys numbers the distinct (prev[i], keys[i]) pairs — or the
// distinct keys, under a nil prev — in order of first appearance: ids
// gets each row's number, firsts is each number's first row.
func groupKeys[K int64 | uint32](ids, prev []int64, keys []K) (firsts []int64) {
	heads, shift := newHeads(2 * groupRoom)
	groups := make([]group, 0, groupRoom)
	firsts = make([]int64, 0, groupRoom)
	for i, key := range keys {
		k := int64(key)
		var p int64
		if prev != nil {
			p = prev[i]
		}
		h := hashKey(p, k)
		g := heads[h>>shift]
		for g != 0 && (groups[g-1].key != k || groups[g-1].prev != p) {
			g = groups[g-1].link
		}
		if g == 0 {
			if len(groups) == cap(groups) {
				heads, shift = newHeads(2 * len(heads))
				groups = append(make([]group, 0, 2*len(groups)), groups...)
				firsts = append(make([]int64, 0, 2*len(firsts)), firsts...)
				for m := range groups {
					e := &groups[m]
					b := hashKey(e.prev, e.key) >> shift
					e.link = heads[b]
					heads[b] = int32(m + 1)
				}
			}
			groups = append(groups, group{prev: p, key: k, link: heads[h>>shift]})
			firsts = append(firsts, int64(i))
			g = int32(len(groups))
			heads[h>>shift] = g
		}
		ids[i] = int64(g - 1)
	}
	return firsts
}
