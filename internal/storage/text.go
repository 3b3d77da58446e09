package storage

import (
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The result text format — what the wire protocol's QUERY reply, the
// facade's Result.WriteTable and DB.DumpCSV all print — is owned by
// WriteText and the append kernels below, and by nothing else:
//
//	Int, OID  decimal
//	Flt       strconv 'g', shortest round-trip ("0.04", "1.234567e+06", "NaN", "+Inf");
//	          cents values print from their integer (appendFloat), same bytes
//	Str       the bytes as stored, unquoted
//	Bool      "true" / "false"
//	Date      "YYYY-MM-DD" (proleptic Gregorian, days since 1970-01-01)
//
// one header line of column names, one line per row, cells joined by
// the caller's separator.

// textBlock is the size at which WriteText hands what it has formatted
// to the writer: large enough that a bufio.Writer passes the block
// straight through and a socket sees tens of writes per megabyte.
const textBlock = 64 << 10

// textLongRows is the row count from which a reply is long: it takes
// the whole block buffer up front and a memo per float column (10 KB to
// allocate and clear, which a few hundred cells cannot repay). Shorter
// replies get neither.
const textLongRows = 1024

// AppendDate appends days since the Unix epoch as YYYY-MM-DD. Years
// 0001 to 9999 take the civil-from-days arithmetic (no time.Time, no
// string); anything outside falls back to the time package, whose
// rendering of such years is the format's definition.
func AppendDate(dst []byte, days int64) []byte {
	const minDays, maxDays = -719162, 2932896 // 0001-01-01, 9999-12-31
	if days < minDays || days > maxDays {
		return time.Unix(days*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
	}
	// Days since 0000-03-01, split into 400-year eras: a year that
	// starts in March puts the leap day last, so month and day fall out
	// of the day-of-year by one linear formula.
	z := days + 719468
	era := z / 146097
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	y := yoe + era*400
	if m > 12 {
		m -= 12
		y++
	}
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10))
}

// appendFloat appends f in the result format. A cents value — a
// non-zero f below 1e6 in magnitude that is the double nearest n/100
// for an integer n, as every TPC-H price, discount and tax is — prints
// from n: the point inserted, trailing fractional zeros trimmed. Those
// are strconv's shortest digits: any shorter decimal lies on a grid of
// 0.01 or coarser, and below 1e6 that spacing is millions of ulps wide,
// so no other decimal rounds to f; and 'g' keeps the plain form for
// exponents -4 to 5. Everything else — 0, -0, NaN, ±Inf, |f| ≥ 1e6 and
// off-grid values — is strconv's.
func appendFloat(dst []byte, f float64) []byte {
	if f != 0 && f > -1e6 && f < 1e6 { // NaN fails both bounds
		if n := int64(math.Round(f * 100)); float64(n)/100 == f {
			if n < 0 {
				dst = append(dst, '-')
				n = -n
			}
			dst = strconv.AppendInt(dst, n/100, 10)
			if c := n % 100; c != 0 {
				dst = append(dst, '.', byte('0'+c/10))
				if c%10 != 0 {
					dst = append(dst, byte('0'+c%10))
				}
			}
			return dst
		}
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// floatMemo is a direct-mapped cache from a float's bits to its text.
// Columns that repeat a handful of values (TPC-H discounts and taxes
// take 11 and 9, quantities 50) copy at most 24 bytes per cell instead
// of formatting it; a column of distinct values (extended prices) misses
// on nearly every cell, and its misses take appendFloat's cents path.
// A slot is empty while n is 0, which no float prints as.
type floatMemo [1 << memoBits]struct {
	bits uint64
	n    uint8
	text [24]byte // the longest 'g' rendering: -1.7976931348623157e+308
}

const memoBits = 8

func (m *floatMemo) slot(bits uint64) int {
	return int(bits * 0x9E3779B97F4A7C15 >> (64 - memoBits))
}

func (m *floatMemo) append(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	e := &m[m.slot(bits)]
	if e.bits != bits || e.n == 0 {
		e.bits = bits
		e.n = uint8(len(appendFloat(e.text[:0], f)))
	}
	return append(dst, e.text[:e.n]...)
}

// textEncoder is WriteText's working memory. Encoders are pooled, so a
// serving session formats reply after reply into the same block buffer
// and the same memos (a memo entry depends on the float's bits alone,
// so it stays valid from one reply to the next).
type textEncoder struct {
	buf   []byte
	memos []*floatMemo // by column position; nil where no long reply had a float column
}

var textEncoders = sync.Pool{New: func() any { return new(textEncoder) }}

// WriteText renders the first rows rows of cols as text: a header line
// of names, then one line per row, cells joined by sep ('\t' for the
// wire protocol and result tables, ',' for CSV). Cells are appended to
// a reused block buffer straight from the columns' backing slices and
// reach w in blocks of about 64 KB. It returns the bytes written and
// stops at the first write error.
func WriteText(w io.Writer, names []string, cols []*BAT, rows int, sep byte) (int64, error) {
	if slices.ContainsFunc(cols, func(b *BAT) bool { return b.dense }) {
		cols = slices.Clone(cols)
		for c, b := range cols {
			if b.dense {
				cols[c] = FromInts(b.kind, b.Ints())
			}
		}
	}
	e := textEncoders.Get().(*textEncoder)
	defer textEncoders.Put(e)
	buf := e.buf[:0]
	long := rows >= textLongRows
	if long {
		if cap(buf) < textBlock {
			// A reply this long fills blocks: take the block (and a row
			// of slack) at once rather than by doubling. Short replies
			// grow the buffer only as far as they reach.
			buf = make([]byte, 0, textBlock+textBlock/8)
		}
		for len(e.memos) < len(cols) {
			e.memos = append(e.memos, nil)
		}
		for c, b := range cols {
			if b.kind == Flt && e.memos[c] == nil {
				e.memos[c] = new(floatMemo)
			}
		}
	}

	for i, name := range names {
		if i > 0 {
			buf = append(buf, sep)
		}
		buf = append(buf, name...)
	}
	buf = append(buf, '\n')
	var written int64
	var err error
	for i := 0; i < rows && err == nil; i++ {
		for c, col := range cols {
			if c > 0 {
				buf = append(buf, sep)
			}
			switch col.kind {
			case Flt:
				if long {
					buf = e.memos[c].append(buf, col.flts[i])
				} else {
					buf = appendFloat(buf, col.flts[i])
				}
			case Str:
				buf = append(buf, col.dict.strs[col.codes[i]]...)
			case Bool:
				buf = strconv.AppendBool(buf, col.bools[i])
			case Date:
				buf = AppendDate(buf, col.ints[i])
			default:
				buf = strconv.AppendInt(buf, col.ints[i], 10)
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= textBlock {
			var n int
			n, err = w.Write(buf)
			written += int64(n)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 && err == nil {
		var n int
		n, err = w.Write(buf)
		written += int64(n)
	}
	e.buf = buf[:0]
	return written, err
}
