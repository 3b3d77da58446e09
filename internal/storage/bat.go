// Package storage implements the columnar substrate of the reproduction:
// BATs (Binary Association Tables), MonetDB's storage unit. A BAT here is a
// dense-headed column — the head is the implicit row position (oid 0..n-1)
// and the tail is a typed value array. Candidate lists (selection results)
// are OID BATs. The engine's MAL operator kernels are thin wrappers over
// the columnar operators in this package.
//
// Those operators follow one contract (DESIGN.md, "Kernel contract"):
// kind and operator are decided once per call and the row loop runs over
// the typed backing slice — for a string column, uint32 codes into its
// ordered dictionary (dict.go); join and grouping share a flat int32
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
	codes []uint32 // Str: one code per row into dict (dict.go)
	dict  *Dict
	bools []bool
	// own is the recycled array the BAT's cells live in (recycle.go),
	// shared with every view of it; nil for an array the collector owns.
	own *backing
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
		b.codes, b.dict = make([]uint32, 0, capacity), emptyDict
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
		return len(b.codes)
	default:
		return len(b.bools)
	}
}

// AppendInt appends to an integer-family BAT (Int, Date, OID).
func (b *BAT) AppendInt(v int64) { b.ints = append(b.ints, v) }

// AppendFlt appends to a Flt BAT.
func (b *BAT) AppendFlt(v float64) { b.flts = append(b.flts, v) }

// AppendBool appends to a Bool BAT.
func (b *BAT) AppendBool(v bool) { b.bools = append(b.bools, v) }

// IntAt returns row i of an integer-family BAT.
func (b *BAT) IntAt(i int) int64 { return b.ints[i] }

// FltAt returns row i of a Flt BAT.
func (b *BAT) FltAt(i int) float64 { return b.flts[i] }

// StrAt returns row i of a Str BAT.
func (b *BAT) StrAt(i int) string { return b.dict.strs[b.codes[i]] }

// BoolAt returns row i of a Bool BAT.
func (b *BAT) BoolAt(i int) bool { return b.bools[i] }

// Ints exposes the backing int64 array of an integer-family BAT.
func (b *BAT) Ints() []int64 { return b.ints }

// Flts exposes the backing float64 array of a Flt BAT.
func (b *BAT) Flts() []float64 { return b.flts }

// Strs returns the rows of a Str BAT as strings, in a new slice.
func (b *BAT) Strs() []string {
	out := make([]string, len(b.codes))
	for i, c := range b.codes {
		out[i] = b.dict.strs[c]
	}
	return out
}

// Codes exposes the backing code array of a Str BAT.
func (b *BAT) Codes() []uint32 { return b.codes }

// Dict returns the dictionary a Str BAT's codes index.
func (b *BAT) Dict() *Dict { return b.dict }

// Bools exposes the backing bool array of a Bool BAT.
func (b *BAT) Bools() []bool { return b.bools }

// Slice returns the rows [lo, hi) as a BAT sharing the backing array.
// This is the primitive behind the optimizer's mitosis partitioning. The
// view's capacity ends at hi: it owns no bytes past its rows, so its
// footprint is its rows and an append to it copies instead of writing
// into the base. A view of a recycled array holds a reference to it.
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
	out := &BAT{kind: b.kind, dict: b.dict, own: b.own}
	switch {
	case b.kind.usesInts():
		out.ints = b.ints[lo:hi:hi]
	case b.kind == Flt:
		out.flts = b.flts[lo:hi:hi]
	case b.kind == Str:
		out.codes = b.codes[lo:hi:hi]
	default:
		out.bools = b.bools[lo:hi:hi]
	}
	b.own.retain()
	return out
}

// Clone returns a deep copy.
func (b *BAT) Clone() *BAT {
	out := &BAT{kind: b.kind, dict: b.dict}
	out.ints = append([]int64(nil), b.ints...)
	out.flts = append([]float64(nil), b.flts...)
	out.codes = append([]uint32(nil), b.codes...)
	out.bools = append([]bool(nil), b.bools...)
	return out
}

// Append concatenates other onto b in place. It returns an error on
// kind mismatch.
func (b *BAT) Append(other *BAT) error {
	if b.kind != other.kind {
		return fmt.Errorf("storage: append %s onto %s", other.kind, b.kind)
	}
	if b.kind == Str {
		b.appendStrs(other)
		return nil
	}
	b.ints = append(b.ints, other.ints...)
	b.flts = append(b.flts, other.flts...)
	b.bools = append(b.bools, other.bools...)
	return nil
}

// appendStrs is Append for Str BATs: codes as they are over a shared
// dictionary, renumbered into a merged one otherwise.
func (b *BAT) appendStrs(other *BAT) {
	if b.dict == other.dict || len(b.codes) == 0 || len(other.codes) == 0 {
		if len(b.codes) == 0 {
			b.dict = other.dict
		}
		b.codes = append(b.codes, other.codes...)
		return
	}
	c := concatStrs([]*BAT{b, other}, 0)
	b.codes, b.dict = c.codes, c.dict
}

// Concat returns the rows of parts, in order, as one new BAT: MAL's
// mat.pack, which reassembles mitosis partitions. The parts must share a
// kind; string parts that share a dictionary keep it.
func Concat(parts []*BAT) (*BAT, error) {
	total := 0
	for _, p := range parts {
		if p.kind != parts[0].kind {
			return nil, fmt.Errorf("storage: append %s onto %s", p.kind, parts[0].kind)
		}
		total += p.Len()
	}
	switch k := parts[0].kind; {
	case k == Str:
		return concatStrs(parts, total), nil
	case k.usesInts():
		return concatInto(k, parts, total, (*BAT).Ints), nil
	case k == Flt:
		return concatInto(k, parts, total, (*BAT).Flts), nil
	default:
		return concatInto(k, parts, total, (*BAT).Bools), nil
	}
}

// concatInto copies the cells of parts, in order, into one buffer of
// total cells from the allocation helper.
func concatInto[T elem](k Kind, parts []*BAT, total int, cells func(*BAT) []T) *BAT {
	out, bk := take[T](total)
	at := 0
	for _, p := range parts {
		at += copy(out[at:], cells(p))
	}
	return wrap(k, out, bk)
}

// wrap makes a BAT of kind k over cells from the allocation helper, the
// owner of bk's reference, in the header that comes with bk (a new one
// for a nil bk). A Str BAT gets its dictionary from the caller.
func wrap[T elem](k Kind, cells []T, bk *backing) *BAT {
	var b *BAT
	if bk != nil {
		b = &bk.bat
		*b = BAT{kind: k, own: bk}
	} else {
		b = &BAT{kind: k}
	}
	switch c := any(cells).(type) {
	case []int64:
		b.ints = c
	case []float64:
		b.flts = c
	case []uint32:
		b.codes = c
	case []bool:
		b.bools = c
	}
	return b
}

// FootprintBytes is the size of the BAT's backing array, used by the
// profiler's rss accounting. A string column counts its codes; its
// dictionary belongs to the column every BAT derived from it shares.
func (b *BAT) FootprintBytes() int64 {
	return int64(cap(b.ints))*8 + int64(cap(b.flts))*8 + int64(cap(b.codes))*4 + int64(cap(b.bools))
}
