// Package mal implements the MonetDB Assembly Language (MAL) used as the
// intermediate representation for query plans in this Stethoscope
// reproduction. A MAL plan is a sequence of instructions of the form
//
//	X_3 := algebra.select(X_1, 1, 1);
//
// where "algebra" is a module, "select" a function in that module, and the
// X_n literals are single-assignment variables. Plans form a dataflow DAG:
// an instruction depends on the instructions that defined its argument
// variables. Stethoscope renders that DAG and animates execution traces on
// top of it.
package mal

import "fmt"

// Type describes the value type carried by a MAL variable.
type Type uint8

// The MAL type lattice used by this reproduction. BAT types are columns
// (MonetDB Binary Association Tables) whose tail carries the element type.
const (
	TVoid Type = iota // no value (control instructions)
	TInt              // 64-bit integer scalar
	TFlt              // 64-bit float scalar
	TStr              // string scalar
	TBool             // boolean scalar
	TDate             // date scalar, days since epoch
	TOID              // object identifier scalar (row position)

	TBATInt  // BAT with int64 tail
	TBATFlt  // BAT with float64 tail
	TBATStr  // BAT with string tail
	TBATBool // BAT with bool tail
	TBATDate // BAT with date tail
	TBATOID  // BAT with oid tail (candidate/selection vectors)

	THash // opaque join-hash handle (partitioned join build side)
)

var typeNames = [...]string{
	TVoid:    "void",
	TInt:     "int",
	TFlt:     "flt",
	TStr:     "str",
	TBool:    "bit",
	TDate:    "date",
	TOID:     "oid",
	TBATInt:  "bat[:int]",
	TBATFlt:  "bat[:flt]",
	TBATStr:  "bat[:str]",
	TBATBool: "bat[:bit]",
	TBATDate: "bat[:date]",
	TBATOID:  "bat[:oid]",
	THash:    "hash",
}

// String returns the MAL notation for the type, e.g. "bat[:int]".
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// BATOf returns the BAT type whose tail carries the given scalar type.
// BATOf(TVoid) returns TVoid.
func BATOf(elem Type) Type {
	switch elem {
	case TInt:
		return TBATInt
	case TFlt:
		return TBATFlt
	case TStr:
		return TBATStr
	case TBool:
		return TBATBool
	case TDate:
		return TBATDate
	case TOID:
		return TBATOID
	}
	return TVoid
}
