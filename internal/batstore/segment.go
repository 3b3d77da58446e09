// Segment payload codec of the BAT store.
//
// A column file is a sequence of fsio-framed records, one per segment.
// Inside the frame (which already carries length + CRC) a segment
// payload is:
//
//	byte  encoding tag
//	uvarint rowCount
//	encoding-specific data, with no trailing bytes
//
// The encodings are deliberately lightweight — decode speed is the
// point, this is the scan path's disk format:
//
//	encRawInt  — one varint per value (Int, Date, OID tails)
//	encRLEInt  — (varint value, uvarint runLength) pairs; chosen when
//	             the segment has few runs (sorted keys, constants)
//	encRawFlt  — 8-byte little-endian IEEE 754 bits per value
//	encRawStr  — uvarint length + bytes per value
//	encDictStr — uvarint dictSize, the dictionary in first-appearance
//	             order, then one uvarint code per row; chosen for
//	             low-cardinality columns (flags, modes, segments)
//	encBits    — bit-packed booleans, LSB-first within each byte
//
// The writer picks the encoding per segment from the data, so a column
// may mix encodings across segments. The decoder validates everything
// it reads (tag/kind agreement, row counts, dictionary codes, string
// bounds, no trailing bytes): arbitrary bytes must decode to an error,
// never to a panic or a silently wrong column.
package batstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"stethoscope/internal/storage"
)

// Segment encoding tags.
const (
	encRawInt  byte = 1
	encRLEInt  byte = 2
	encRawFlt  byte = 3
	encRawStr  byte = 4
	encDictStr byte = 5
	encBits    byte = 6
)

// dictMaxSize caps the per-segment string dictionary; above this the
// column is not low-cardinality and raw encoding wins.
const dictMaxSize = 4096

// encodeSegment appends the encoded form of rows [lo, hi) of b onto dst
// and returns the extended slice. The encoding is chosen per segment
// from the data.
func encodeSegment(dst []byte, b *storage.BAT, lo, hi int) []byte {
	n := hi - lo
	switch {
	case b.Kind() == storage.Flt:
		dst = append(dst, encRawFlt)
		dst = binary.AppendUvarint(dst, uint64(n))
		for _, v := range b.Flts()[lo:hi] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case b.Kind() == storage.Str:
		dst = encodeStrings(dst, b.Strs()[lo:hi])
	case b.Kind() == storage.Bool:
		dst = append(dst, encBits)
		dst = binary.AppendUvarint(dst, uint64(n))
		var cur byte
		for i, v := range b.Bools()[lo:hi] {
			if v {
				cur |= 1 << (i % 8)
			}
			if i%8 == 7 {
				dst = append(dst, cur)
				cur = 0
			}
		}
		if n%8 != 0 {
			dst = append(dst, cur)
		}
	default: // integer family: Int, Date, OID
		dst = encodeInts(dst, b.Ints()[lo:hi])
	}
	return dst
}

// encodeInts picks RLE when the segment has at most half as many runs
// as rows (sorted keys, repeated foreign keys, constants), raw varints
// otherwise.
func encodeInts(dst []byte, vals []int64) []byte {
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	if len(vals) > 1 && runs <= len(vals)/2 {
		dst = append(dst, encRLEInt)
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
		for i := 0; i < len(vals); {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			dst = binary.AppendVarint(dst, vals[i])
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
		return dst
	}
	dst = append(dst, encRawInt)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// encodeStrings picks a dictionary when the segment is low-cardinality
// (at most dictMaxSize distinct values and at most half as many as
// rows), raw length-prefixed strings otherwise.
func encodeStrings(dst []byte, vals []string) []byte {
	codes := make(map[string]int, 64)
	order := make([]string, 0, 64)
	for _, v := range vals {
		if _, ok := codes[v]; !ok {
			if len(order) >= dictMaxSize {
				codes = nil
				break
			}
			codes[v] = len(order)
			order = append(order, v)
		}
	}
	if codes != nil && len(vals) > 1 && len(order) <= len(vals)/2 {
		dst = append(dst, encDictStr)
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
		dst = binary.AppendUvarint(dst, uint64(len(order)))
		for _, s := range order {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
		for _, v := range vals {
			dst = binary.AppendUvarint(dst, uint64(codes[v]))
		}
		return dst
	}
	dst = append(dst, encRawStr)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// segReader is a sticky-error cursor over a segment payload.
type segReader struct {
	b   []byte
	pos int
	err error
}

func (r *segReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *segReader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail("truncated segment payload")
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *segReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint in segment payload")
		return 0
	}
	r.pos += n
	return v
}

func (r *segReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated varint in segment payload")
		return 0
	}
	r.pos += n
	return v
}

func (r *segReader) string() string {
	n := int(r.uvarint())
	if r.err != nil {
		return ""
	}
	if n < 0 || n > len(r.b)-r.pos {
		r.fail("string length %d exceeds segment payload", n)
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

// decodeSegment appends one segment payload's rows onto dst, whose kind
// selects the legal encodings. maxRows bounds the declared row count (a
// corrupt count must not drive allocation). It returns the decoded row
// count. Arbitrary input yields an error, never a panic or short data.
func decodeSegment(payload []byte, dst *storage.BAT, maxRows int) (int, error) {
	r := &segReader{b: payload}
	enc := r.byte()
	n := int(r.uvarint())
	if r.err != nil {
		return 0, r.err
	}
	if n < 0 || n > maxRows {
		return 0, fmt.Errorf("segment declares %d rows (max %d)", n, maxRows)
	}
	switch enc {
	case encRawInt:
		if !intKind(dst.Kind()) {
			return 0, fmt.Errorf("raw-int segment in %s column", dst.Kind())
		}
		for i := 0; i < n && r.err == nil; i++ {
			dst.AppendInt(r.varint())
		}
	case encRLEInt:
		if !intKind(dst.Kind()) {
			return 0, fmt.Errorf("rle-int segment in %s column", dst.Kind())
		}
		for got := 0; got < n && r.err == nil; {
			v := r.varint()
			run := r.uvarint()
			if r.err != nil {
				break
			}
			if run == 0 || run > uint64(n-got) {
				return 0, fmt.Errorf("rle run of %d rows at row %d overflows %d-row segment", run, got, n)
			}
			for i := uint64(0); i < run; i++ {
				dst.AppendInt(v)
			}
			got += int(run)
		}
	case encRawFlt:
		if dst.Kind() != storage.Flt {
			return 0, fmt.Errorf("raw-flt segment in %s column", dst.Kind())
		}
		if len(payload)-r.pos < 8*n {
			return 0, fmt.Errorf("flt segment holds %d bytes for %d rows", len(payload)-r.pos, n)
		}
		for i := 0; i < n; i++ {
			bits := binary.LittleEndian.Uint64(r.b[r.pos:])
			r.pos += 8
			dst.AppendFlt(math.Float64frombits(bits))
		}
	case encRawStr:
		if dst.Kind() != storage.Str {
			return 0, fmt.Errorf("raw-str segment in %s column", dst.Kind())
		}
		for i := 0; i < n && r.err == nil; i++ {
			dst.AppendStr(r.string())
		}
	case encDictStr:
		if dst.Kind() != storage.Str {
			return 0, fmt.Errorf("dict-str segment in %s column", dst.Kind())
		}
		dictLen := int(r.uvarint())
		if r.err != nil {
			return 0, r.err
		}
		if dictLen <= 0 || dictLen > dictMaxSize {
			return 0, fmt.Errorf("dictionary of %d entries (max %d)", dictLen, dictMaxSize)
		}
		dict := make([]string, dictLen)
		for i := range dict {
			dict[i] = r.string()
		}
		for i := 0; i < n && r.err == nil; i++ {
			code := r.uvarint()
			if r.err != nil {
				break
			}
			if code >= uint64(dictLen) {
				return 0, fmt.Errorf("dictionary code %d at row %d exceeds %d entries", code, i, dictLen)
			}
			dst.AppendStr(dict[code])
		}
	case encBits:
		if dst.Kind() != storage.Bool {
			return 0, fmt.Errorf("bit-packed segment in %s column", dst.Kind())
		}
		want := (n + 7) / 8
		if len(payload)-r.pos < want {
			return 0, fmt.Errorf("bool segment holds %d bytes for %d rows", len(payload)-r.pos, n)
		}
		for i := 0; i < n; i++ {
			dst.AppendBool(r.b[r.pos+i/8]&(1<<(i%8)) != 0)
		}
		r.pos += want
	default:
		return 0, fmt.Errorf("unknown segment encoding %d", enc)
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.pos != len(payload) {
		return 0, fmt.Errorf("%d trailing bytes after %d-row segment", len(payload)-r.pos, n)
	}
	return n, nil
}

func intKind(k storage.Kind) bool {
	return k == storage.Int || k == storage.Date || k == storage.OID
}
