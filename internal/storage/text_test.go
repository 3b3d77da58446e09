package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// RefWriteText is the formatter WriteText replaced — server.WriteResult's
// row loop, cellString and sql.FormatDate's time.Format as they stood
// before, with the row count and separator DumpCSV's copy had — kept as
// the reference every equivalence test compares against. Exported from
// the test package so the TPC-H sweep in package storage_test shares it.
func RefWriteText(w *bufio.Writer, names []string, cols []*BAT, rows int, sep byte) {
	fmt.Fprintln(w, strings.Join(names, string(sep)))
	for i := 0; i < rows; i++ {
		for c, col := range cols {
			if c > 0 {
				w.WriteByte(sep)
			}
			w.WriteString(refCellString(col, i))
		}
		w.WriteByte('\n')
	}
}

func refCellString(b *BAT, i int) string {
	switch b.Kind() {
	case Flt:
		return strconv.FormatFloat(b.FltAt(i), 'g', -1, 64)
	case Str:
		return b.StrAt(i)
	case Bool:
		return strconv.FormatBool(b.BoolAt(i))
	case Date:
		return refFormatDate(b.IntAt(i))
	default:
		return strconv.FormatInt(b.IntAt(i), 10)
	}
}

func refFormatDate(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// assertMatchesReference renders the table both ways and compares bytes
// and the reported count.
func assertMatchesReference(t *testing.T, what string, names []string, cols []*BAT, rows int, sep byte) {
	t.Helper()
	var want bytes.Buffer
	bw := bufio.NewWriter(&want)
	RefWriteText(bw, names, cols, rows, sep)
	bw.Flush()
	var got bytes.Buffer
	n, err := WriteText(&got, names, cols, rows, sep)
	if err != nil {
		t.Fatalf("%s: WriteText: %v", what, err)
	}
	if n != int64(got.Len()) {
		t.Errorf("%s: WriteText reports %d bytes, wrote %d", what, n, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: line %d: got %q, reference %q", what, i, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, reference has %d", what, len(g), len(w))
	}
}

// collidingFloats returns two floats that share a memo slot.
func collidingFloats() (a, b float64) {
	var m floatMemo
	a = 0.04
	for b = 1.5; m.slot(math.Float64bits(b)) != m.slot(math.Float64bits(a)); b++ {
	}
	return a, b
}

var adversarialFloats = []float64{
	math.NaN(), math.Float64frombits(0x7FF8000000000001), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
	1e21, 1e20, 1e-5, 1e-4, 1234567, 123456, 0.1 + 0.2, 1.0 / 3, 0.04, 17, -17.25,
}

var adversarialDates = []int64{
	0, -1, 1, -25567, // 1900-01-01
	-25508, -25507, // 1900-02-28, 1900-03-01: not a leap year
	11016, 11017, // 2000-02-29, 2000-03-01
	19782,            // 2024-02-29
	-719162, 2932896, // 0001-01-01, 9999-12-31
	// Outside the civil range: the time package's rendering.
	-719163, 2932897, -1000000, 5000000, math.MaxInt64 / 86400, math.MinInt64 / 86400, math.MaxInt64,
}

// TestWriteTextAdversarial compares WriteText with the reference on the
// values a formatter gets wrong, below and above the row count at which
// float columns take their memo, and on the degenerate table shapes.
func TestWriteTextAdversarial(t *testing.T) {
	a, b := collidingFloats()
	flts := append(append([]float64{}, adversarialFloats...), a, b, a, b, b, a)
	strs := []string{"", "plain", "tab\there", "comma,here", "quote\"here", "naïve ☃", "trailing "}
	for _, rows := range []int{len(flts), 3 * textLongRows} {
		cols := []*BAT{New(Int, rows), New(Flt, rows), New(Str, rows), New(Bool, rows), New(Date, rows), New(OID, rows), New(Flt, rows)}
		for i := 0; i < rows; i++ {
			cols[0].AppendInt([]int64{0, -1, math.MaxInt64, math.MinInt64, 42}[i%5])
			cols[1].AppendFlt(flts[i%len(flts)])
			appendStr(cols[2], strs[i%len(strs)])
			cols[3].AppendBool(i%3 == 0)
			cols[4].AppendInt(adversarialDates[i%len(adversarialDates)])
			cols[5].AppendInt(int64(i))
			// More distinct values than the memo has slots, each seen
			// again a cycle later: whatever the hash, entries collide
			// and are evicted between uses.
			cols[6].AppendFlt(float64(i%(2*len(floatMemo{}))) / 100)
		}
		names := []string{"i", "f", "s", "b", "d", "o", "g"}
		for _, sep := range []byte{'\t', ','} {
			assertMatchesReference(t, fmt.Sprintf("%d rows sep %q", rows, sep), names, cols, rows, sep)
		}
		assertMatchesReference(t, "limited", names, cols, rows/2, ',')
	}
	assertMatchesReference(t, "empty result", []string{"a", "b"}, []*BAT{New(Int, 0), New(Flt, 0)}, 0, '\t')
	assertMatchesReference(t, "zero columns", nil, nil, 0, '\t')
}

// TestAppendDateEveryDay checks the civil-from-days arithmetic against
// the time package for every day it claims, and the fallback beyond.
func TestAppendDateEveryDay(t *testing.T) {
	var buf []byte
	day := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	var ref []byte
	for days := int64(-719162); days <= 2932896; days++ {
		buf = AppendDate(buf[:0], days)
		ref = day.AppendFormat(ref[:0], "2006-01-02")
		if !bytes.Equal(buf, ref) {
			t.Fatalf("AppendDate(%d) = %s, time says %s", days, buf, ref)
		}
		day = day.AddDate(0, 0, 1)
	}
	if string(buf) != "9999-12-31" {
		t.Fatalf("last day = %s", buf)
	}
	for _, days := range adversarialDates {
		if got, want := string(AppendDate(nil, days)), refFormatDate(days); got != want {
			t.Errorf("AppendDate(%d) = %s, reference %s", days, got, want)
		}
	}
}

// TestWriteTextAllocs pins the row loop as allocation-free: a warm
// encoder formats 10 000 rows of five kinds without touching the heap,
// and a cold one (the pool was emptied) pays a handful of set-up
// allocations, never one per cell.
func TestWriteTextAllocs(t *testing.T) {
	const rows = 10000
	cols := []*BAT{New(Int, rows), New(Flt, rows), New(Str, rows), New(Bool, rows), New(Date, rows)}
	for i := 0; i < rows; i++ {
		cols[0].AppendInt(int64(i) * 7919)
		cols[1].AppendFlt(float64(i%50) + float64(i%11)/100)
		appendStr(cols[2], "MAIL")
		cols[3].AppendBool(i&1 == 0)
		cols[4].AppendInt(8000 + int64(i%2500))
	}
	names := []string{"i", "f", "s", "b", "d"}
	var sink countingWriter
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := WriteText(&sink, names, cols, rows, '\t'); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("WriteText allocates %.0f times for a %d-row result, want <= 8", allocs, rows)
	}
	if sink.writes < 11*4 {
		t.Fatalf("only %d writes in 11 runs: the result is too small to exercise block writes", sink.writes)
	}
}

type countingWriter struct {
	writes int
	n      int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.n += int64(len(p))
	return len(p), nil
}

// failAfter accepts ok writes, then fails every one.
type failAfter struct {
	countingWriter
	ok int
}

var errPeerGone = errors.New("peer gone")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.writes >= f.ok {
		f.writes++
		return 0, errPeerGone
	}
	return f.countingWriter.Write(p)
}

// TestWriteTextStopsAtFirstWriteError: a writer that fails stops the
// formatting — one failed write, none after it — and the count is of
// what was accepted.
func TestWriteTextStopsAtFirstWriteError(t *testing.T) {
	const rows = 100000
	col := New(Int, rows)
	for i := 0; i < rows; i++ {
		col.AppendInt(int64(i))
	}
	w := &failAfter{ok: 1}
	n, err := WriteText(w, []string{"i"}, []*BAT{col}, rows, '\t')
	if !errors.Is(err, errPeerGone) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if w.writes != 2 {
		t.Errorf("%d writes, want the accepted block and the one that failed", w.writes)
	}
	if n != w.n || n < textBlock {
		t.Errorf("reported %d bytes, writer accepted %d (block %d)", n, w.n, textBlock)
	}
}

// FuzzAppendFloatCell: for any bit pattern, the plain kernel and the
// memo (on a miss, and again on the hit that follows) print what
// strconv.FormatFloat prints.
func FuzzAppendFloatCell(f *testing.F) {
	for _, v := range adversarialFloats {
		f.Add(math.Float64bits(v))
	}
	memo := new(floatMemo)
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want := strconv.FormatFloat(v, 'g', -1, 64)
		if got := string(appendFloat(nil, v)); got != want {
			t.Fatalf("appendFloat(%#x) = %q, want %q", bits, got, want)
		}
		for _, pass := range []string{"first", "second"} {
			if got := string(memo.append([]byte("x"), v)); got != "x"+want {
				t.Fatalf("memo %s pass (%#x) = %q, want %q", pass, bits, got, "x"+want)
			}
		}
	})
}

// FuzzAppendDate: any day count prints as the time package prints it.
func FuzzAppendDate(f *testing.F) {
	for _, d := range adversarialDates {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, days int64) {
		if got, want := string(AppendDate([]byte("x"), days)), "x"+refFormatDate(days); got != want {
			t.Fatalf("AppendDate(%d) = %q, want %q", days, got, want)
		}
	})
}
