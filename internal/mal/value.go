package mal

import (
	"bytes"
	"math"
	"strconv"
)

// Value is a runtime MAL value: a scalar or an opaque column handle. The
// mal package stays independent of the storage layer, so BAT payloads are
// carried as an opaque reference set by the engine.
type Value struct {
	Type Type
	Bool bool    // TBool
	Int  int64   // TInt, TDate (days since 1970-01-01), TOID
	Flt  float64 // TFlt
	Str  string  // TStr
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

// Nil reports whether the value is the zero Value (type void, no payload).
func (v Value) Nil() bool { return v.Type == TVoid && v.Col == nil }

// String renders the value as a MAL literal. BAT handles render as
// "<bat>" placeholders since their contents live in the engine.
func (v Value) String() string { return string(v.appendLiteral(nil)) }

func (v Value) appendLiteral(b []byte) []byte {
	switch v.Type {
	case TVoid:
		return append(b, "nil"...)
	case TInt, TOID:
		return strconv.AppendInt(b, v.Int, 10)
	case TDate:
		b = strconv.AppendInt(append(b, "date("...), v.Int, 10)
		return append(b, ')')
	case TFlt:
		n := len(b)
		b = strconv.AppendFloat(b, v.Flt, 'g', -1, 64)
		if !bytes.ContainsAny(b[n:], ".eE") {
			b = append(b, ".0"...)
		}
		return b
	case TStr:
		return strconv.AppendQuote(b, v.Str)
	case TBool:
		return strconv.AppendBool(b, v.Bool)
	default:
		return append(b, "<bat>"...)
	}
}

// literalKey returns the constant-table key of a literal value: equal
// keys render the same literal. Values that are not literals (column
// handles) report false and are never deduplicated.
func (v Value) literalKey() (constKey, bool) {
	if v.Col != nil {
		return constKey{}, false
	}
	switch v.Type {
	case TVoid:
		return constKey{t: TVoid}, true
	case TInt, TOID, TDate:
		return constKey{t: v.Type, i: v.Int}, true
	case TFlt:
		return constKey{t: TFlt, i: int64(math.Float64bits(v.Flt))}, true
	case TStr:
		return constKey{t: TStr, s: v.Str}, true
	case TBool:
		if v.Bool {
			return constKey{t: TBool, i: 1}, true
		}
		return constKey{t: TBool}, true
	}
	return constKey{}, false
}
