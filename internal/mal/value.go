package mal

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a runtime MAL value: a scalar or an opaque column handle. The
// mal package stays independent of the storage layer, so BAT payloads are
// carried as an opaque reference set by the engine.
type Value struct {
	Type Type
	Int  int64   // TInt, TDate (days since 1970-01-01), TOID
	Flt  float64 // TFlt
	Str  string  // TStr
	Bool bool    // TBool
	Col  any     // BAT payload for TBAT* types, owned by the engine
}

// Int64 constructs an integer value.
func Int64(v int64) Value { return Value{Type: TInt, Int: v} }

// Float64 constructs a float value.
func Float64(v float64) Value { return Value{Type: TFlt, Flt: v} }

// Str constructs a string value.
func Str(v string) Value { return Value{Type: TStr, Str: v} }

// Bool constructs a boolean value.
func Bool(v bool) Value { return Value{Type: TBool, Bool: v} }

// Date constructs a date value from days since the Unix epoch.
func Date(days int64) Value { return Value{Type: TDate, Int: days} }

// OID constructs an object-identifier value.
func OID(v int64) Value { return Value{Type: TOID, Int: v} }

// Nil reports whether the value is the zero Value (type void, no payload).
func (v Value) Nil() bool { return v.Type == TVoid && v.Col == nil }

// String renders the value as a MAL literal. BAT handles render as
// "<bat>" placeholders since their contents live in the engine.
func (v Value) String() string {
	switch v.Type {
	case TVoid:
		return "nil"
	case TInt, TOID:
		return strconv.FormatInt(v.Int, 10)
	case TDate:
		return fmt.Sprintf("date(%d)", v.Int)
	case TFlt:
		s := strconv.FormatFloat(v.Flt, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case TStr:
		return strconv.Quote(v.Str)
	case TBool:
		if v.Bool {
			return "true"
		}
		return "false"
	default:
		return "<bat>"
	}
}
