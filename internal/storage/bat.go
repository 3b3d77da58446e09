// Package storage implements the columnar substrate of the reproduction:
// BATs (Binary Association Tables), MonetDB's storage unit. A BAT here is a
// dense-headed column — the head is the implicit row position (oid 0..n-1)
// and the tail is a typed value array. Candidate lists (selection results)
// are OID BATs. The engine's MAL operator kernels are thin wrappers over
// the columnar operators in this package.
//
// Those operators follow one contract (DESIGN.md, "Kernel contract"):
// kind and operator are decided once per call and the row loop runs over
// the typed backing slice; join and grouping share a flat int32
// bucket/link index over int64 keys (hash.go); outputs keep probe-oid
// order, build order within a key, first-appearance group ids and
// row-order accumulation, so results are byte-identical to the
// reference kernels kept in ref_kernels_test.go.
package storage

import "fmt"

// Kind is the tail type of a BAT.
type Kind int

// Supported tail kinds. Date is stored as days since the Unix epoch and
// OID as an int64 row position; both share the integer array.
const (
	Int Kind = iota
	Flt
	Str
	Bool
	Date
	OID
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Flt:
		return "flt"
	case Str:
		return "str"
	case Bool:
		return "bit"
	case Date:
		return "date"
	case OID:
		return "oid"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a kind name produced by Kind.String — the
// spelling persisted dataset manifests use.
func ParseKind(s string) (Kind, bool) {
	switch s {
	case "int":
		return Int, true
	case "flt":
		return Flt, true
	case "str":
		return Str, true
	case "bit":
		return Bool, true
	case "date":
		return Date, true
	case "oid":
		return OID, true
	}
	return Int, false
}

func (k Kind) usesInts() bool { return k == Int || k == Date || k == OID }

// BAT is a single column. The zero value is not usable; construct with New.
type BAT struct {
	kind  Kind
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
}

// New returns an empty BAT of the given kind with capacity hint cap.
func New(k Kind, capacity int) *BAT {
	b := &BAT{kind: k}
	switch {
	case k.usesInts():
		b.ints = make([]int64, 0, capacity)
	case k == Flt:
		b.flts = make([]float64, 0, capacity)
	case k == Str:
		b.strs = make([]string, 0, capacity)
	case k == Bool:
		b.bools = make([]bool, 0, capacity)
	}
	return b
}

// FromInts wraps an int64 slice as a BAT of kind k (Int, Date or OID).
// The slice is not copied.
func FromInts(k Kind, v []int64) *BAT {
	if !k.usesInts() {
		panic("storage: FromInts with non-integer kind " + k.String())
	}
	return &BAT{kind: k, ints: v}
}

// FromFloats wraps a float64 slice as a Flt BAT without copying.
func FromFloats(v []float64) *BAT { return &BAT{kind: Flt, flts: v} }

// FromStrings wraps a string slice as a Str BAT without copying.
func FromStrings(v []string) *BAT { return &BAT{kind: Str, strs: v} }

// FromBools wraps a bool slice as a Bool BAT without copying.
func FromBools(v []bool) *BAT { return &BAT{kind: Bool, bools: v} }

// Kind returns the tail kind.
func (b *BAT) Kind() Kind { return b.kind }

// Len returns the number of rows.
func (b *BAT) Len() int {
	switch {
	case b.kind.usesInts():
		return len(b.ints)
	case b.kind == Flt:
		return len(b.flts)
	case b.kind == Str:
		return len(b.strs)
	default:
		return len(b.bools)
	}
}

// AppendInt appends to an integer-family BAT (Int, Date, OID).
func (b *BAT) AppendInt(v int64) { b.ints = append(b.ints, v) }

// AppendFlt appends to a Flt BAT.
func (b *BAT) AppendFlt(v float64) { b.flts = append(b.flts, v) }

// AppendStr appends to a Str BAT.
func (b *BAT) AppendStr(v string) { b.strs = append(b.strs, v) }

// AppendBool appends to a Bool BAT.
func (b *BAT) AppendBool(v bool) { b.bools = append(b.bools, v) }

// IntAt returns row i of an integer-family BAT.
func (b *BAT) IntAt(i int) int64 { return b.ints[i] }

// FltAt returns row i of a Flt BAT.
func (b *BAT) FltAt(i int) float64 { return b.flts[i] }

// StrAt returns row i of a Str BAT.
func (b *BAT) StrAt(i int) string { return b.strs[i] }

// BoolAt returns row i of a Bool BAT.
func (b *BAT) BoolAt(i int) bool { return b.bools[i] }

// Ints exposes the backing int64 array of an integer-family BAT.
func (b *BAT) Ints() []int64 { return b.ints }

// Flts exposes the backing float64 array of a Flt BAT.
func (b *BAT) Flts() []float64 { return b.flts }

// Strs exposes the backing string array of a Str BAT.
func (b *BAT) Strs() []string { return b.strs }

// Bools exposes the backing bool array of a Bool BAT.
func (b *BAT) Bools() []bool { return b.bools }

// Slice returns the rows [lo, hi) as a BAT sharing the backing array.
// This is the primitive behind the optimizer's mitosis partitioning.
func (b *BAT) Slice(lo, hi int) *BAT {
	n := b.Len()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	out := &BAT{kind: b.kind}
	switch {
	case b.kind.usesInts():
		out.ints = b.ints[lo:hi]
	case b.kind == Flt:
		out.flts = b.flts[lo:hi]
	case b.kind == Str:
		out.strs = b.strs[lo:hi]
	default:
		out.bools = b.bools[lo:hi]
	}
	return out
}

// Clone returns a deep copy.
func (b *BAT) Clone() *BAT {
	out := &BAT{kind: b.kind}
	out.ints = append([]int64(nil), b.ints...)
	out.flts = append([]float64(nil), b.flts...)
	out.strs = append([]string(nil), b.strs...)
	out.bools = append([]bool(nil), b.bools...)
	return out
}

// Append concatenates other onto b in place. This is the mergetable
// "pack" primitive that reassembles mitosis partitions. It returns an
// error on kind mismatch.
func (b *BAT) Append(other *BAT) error {
	if b.kind != other.kind {
		return fmt.Errorf("storage: append %s onto %s", other.kind, b.kind)
	}
	b.ints = append(b.ints, other.ints...)
	b.flts = append(b.flts, other.flts...)
	b.strs = append(b.strs, other.strs...)
	b.bools = append(b.bools, other.bools...)
	return nil
}

// FootprintBytes estimates the heap footprint of the BAT, used by the
// profiler's rss accounting.
func (b *BAT) FootprintBytes() int64 {
	var n int64
	n += int64(cap(b.ints)) * 8
	n += int64(cap(b.flts)) * 8
	n += int64(cap(b.bools))
	for _, s := range b.strs {
		n += int64(len(s)) + 16
	}
	return n
}
