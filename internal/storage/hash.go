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
// that built it except through a JoinHash: no pool, no cross-query state.

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
	// dict maps a Str build key to its dense code, the int64 it is
	// indexed under.
	dict map[string]int32
	err  error
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
	if r.kind == Str {
		h.dict = make(map[string]int32)
	}
	h.keys = int64Keys(r, h.dict, true)
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
	lo, ro := make([]int64, 0, len(keys)), make([]int64, 0, len(keys))
	for i, k := range keys {
		for r := h.heads[hashKey(0, k)>>h.shift]; r != 0; r = h.next[r-1] {
			if h.keys[r-1] == k {
				lo = append(lo, int64(i))
				ro = append(ro, int64(r-1))
			}
		}
	}
	return FromInts(OID, lo), FromInts(OID, ro), nil
}

// HashJoin computes the equi-join of l and r on value equality and returns
// matching oid pairs (aligned left and right oid BATs). The right side
// is hashed; the left side probes, keeping the output ordered by left
// oid. This is MAL's algebra.join — the packed form of
// BuildJoinHash + Probe.
func HashJoin(l, r *BAT) (lOIDs, rOIDs *BAT, err error) {
	return BuildJoinHash(r).Probe(l)
}

// int64Keys maps a key column onto int64 so that two cells are equal keys
// exactly when their int64s are. build says which side of a join (or a
// grouping, which is all build) the column is on.
//
//   - Int, Date, OID: the backing array itself, no copy.
//   - Bool: 0 and 1.
//   - Flt: the IEEE bits, with -0 folded onto +0 (they are equal keys)
//     and every NaN given a pattern of its own — NaN never equals
//     anything, itself included — that no other row of either side has:
//     the row number in the payload, the side in bit 32.
//   - Str: the dense code dict holds for the string. The build side adds
//     unseen strings in first-appearance order; a probe string the build
//     side never saw gets -1, which no build key is.
func int64Keys(b *BAT, dict map[string]int32, build bool) []int64 {
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
		out := make([]int64, len(b.strs))
		for i, s := range b.strs {
			code, ok := dict[s]
			if !ok {
				code = -1
				if build {
					code = int32(len(dict))
					dict[s] = code
				}
			}
			out[i] = int64(code)
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
	var dict map[string]int32
	if b.kind == Str {
		dict = make(map[string]int32)
	}
	keys := int64Keys(b, dict, true)
	var ids, firsts []int64
	if b.kind == Str && prev == nil {
		// Dense codes in first-appearance order are the group ids already.
		ids = keys
		for i, code := range keys {
			if int(code) == len(firsts) {
				firsts = append(firsts, int64(i))
			}
		}
	} else {
		var pg []int64
		if prev != nil {
			pg = prev.ints
		}
		ids, firsts = groupKeys(pg, keys)
	}
	return FromInts(OID, ids), FromInts(OID, firsts), len(firsts), nil
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

// groupKeys numbers the distinct (prev[i], keys[i]) pairs — or the
// distinct keys, under a nil prev — in order of first appearance: ids
// has each row's number, firsts each number's first row.
func groupKeys(prev, keys []int64) (ids, firsts []int64) {
	ids = make([]int64, len(keys))
	heads, shift := newHeads(2 * groupRoom)
	groups := make([]group, 0, groupRoom)
	firsts = make([]int64, 0, groupRoom)
	for i, k := range keys {
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
	return ids, firsts
}
