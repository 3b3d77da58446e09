package profiler

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// marshalFmt is Event.Marshal as it stood before the append-based
// writer, verbatim: the judge of the bytes AppendMarshal writes.
func marshalFmt(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "event=%d status=%s pc=%d thread=%d clk=%d usec=%d rss=%d reads=%d writes=%d stmt=%s",
		e.Seq, e.State, e.PC, e.Thread, e.ClkUs, e.DurUs, e.RSSKB, e.Reads, e.Writes,
		strconv.Quote(e.Stmt))
	return b.String()
}

// checkMarshal holds Marshal and AppendMarshal (after a prefix) to the
// fmt form.
func checkMarshal(t *testing.T, e Event) {
	t.Helper()
	want := marshalFmt(e)
	if got := e.Marshal(); got != want {
		t.Fatalf("Marshal = %q\n   fmt form %q", got, want)
	}
	if got := string(e.AppendMarshal([]byte("prefix "))); got != "prefix "+want {
		t.Fatalf("AppendMarshal after a prefix = %q", got)
	}
}

func TestEventMarshalMatchesFmt(t *testing.T) {
	stmts := []string{
		"",
		`X_5:bat[:oid] := algebra.thetaselect(X_1, "=", 1);`,
		`back\slash and "quotes" and 'ticks'`,
		"line\nfeed\r\ttab",
		"invalid \xff\xfe utf-8 \xc3",
		"é ✓   \x00 \x7f",
		strings.Repeat("long ", 100),
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)}
	for _, stmt := range stmts {
		for _, n := range ints {
			checkMarshal(t, Event{
				Seq: n, State: StateDone, PC: int(n), Thread: int(-n - 1), ClkUs: n, DurUs: -n,
				RSSKB: n / 3, Reads: n, Writes: math.MaxInt64, Stmt: stmt,
			})
		}
	}
	for _, st := range []State{StateStart, StateDone, State(-1), State(7)} {
		checkMarshal(t, Event{State: st, Stmt: "x"})
	}
}

func FuzzEventMarshal(f *testing.F) {
	f.Add(int64(3), 1, 1, 2, int64(120), int64(45), int64(4096), int64(100), int64(10), `X_1 := sql.bind("sys");`)
	f.Add(int64(math.MinInt64), -1, math.MinInt64, math.MaxInt64, int64(-1), int64(math.MaxInt64), int64(0), int64(-7), int64(1), "a\\b\"c\nd\xff")
	f.Fuzz(func(t *testing.T, seq int64, state, pc, thread int, clk, dur, rss, reads, writes int64, stmt string) {
		checkMarshal(t, Event{
			Seq: seq, State: State(state), PC: pc, Thread: thread, ClkUs: clk, DurUs: dur,
			RSSKB: rss, Reads: reads, Writes: writes, Stmt: stmt,
		})
	})
}
