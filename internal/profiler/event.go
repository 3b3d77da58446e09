// Package profiler reproduces the MAL profiler: the MonetDB kernel
// component that emits one "start" and one "done" event per executed MAL
// instruction (paper §3.3), carrying OS-level measurements (cpu time,
// memory, IO counts) alongside the statement text. Events flow to
// pluggable sinks: the run's owned collector, trace files for offline
// analysis, and, through a Batcher whose flush deadline is one timer,
// UDP streams to the textual Stethoscope (which samples what it
// receives in a window of its own event log).
package profiler

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// State is the instruction lifecycle state carried on an event.
type State int

// Lifecycle states. The paper's coloring maps start -> RED, done -> GREEN.
const (
	StateStart State = iota
	StateDone
)

// String returns the trace spelling ("start" / "done").
func (s State) String() string {
	if s == StateDone {
		return "done"
	}
	return "start"
}

// ParseState parses the trace spelling.
func ParseState(s string) (State, error) {
	switch s {
	case "start":
		return StateStart, nil
	case "done":
		return StateDone, nil
	}
	return StateStart, fmt.Errorf("profiler: unknown state %q", s)
}

// Event is one profiler record. Field names follow the paper's trace
// description: "event" is the sequence index used to key the trace store,
// "pc" maps to dot node nN, and "stmt" maps to the dot label (§3.3).
type Event struct {
	Seq    int64  // event: monotonically increasing per profiler
	State  State  // status: start or done
	PC     int    // pc: program counter of the instruction
	Thread int    // thread: worker that executed the instruction
	ClkUs  int64  // clk: microseconds since query start
	DurUs  int64  // usec: instruction execution time (done events)
	RSSKB  int64  // rss: estimated resident set, KiB
	Reads  int64  // reads: input tuples consumed
	Writes int64  // writes: output tuples produced
	Stmt   string // stmt: MAL statement text
}

// Marshal renders the event as one trace line:
//
//	event=3 status=done pc=1 thread=2 clk=120 usec=45 rss=4096 reads=100 writes=10 stmt="X_1 := ...;"
//
// The format is the reproduction's stand-in for the MonetDB profiler's
// stream records (Fig. 3): same fields, line-oriented, parseable.
func (e Event) Marshal() string {
	var buf [160]byte
	return string(e.AppendMarshal(buf[:0]))
}

// AppendMarshal appends the Marshal line to b, with no newline: the
// writer of trace files and of the UDP event batches.
func (e Event) AppendMarshal(b []byte) []byte {
	b = append(b, "event="...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, " status="...)
	b = append(b, e.State.String()...)
	b = append(b, " pc="...)
	b = strconv.AppendInt(b, int64(e.PC), 10)
	b = append(b, " thread="...)
	b = strconv.AppendInt(b, int64(e.Thread), 10)
	b = append(b, " clk="...)
	b = strconv.AppendInt(b, e.ClkUs, 10)
	b = append(b, " usec="...)
	b = strconv.AppendInt(b, e.DurUs, 10)
	b = append(b, " rss="...)
	b = strconv.AppendInt(b, e.RSSKB, 10)
	b = append(b, " reads="...)
	b = strconv.AppendInt(b, e.Reads, 10)
	b = append(b, " writes="...)
	b = strconv.AppendInt(b, e.Writes, 10)
	b = append(b, " stmt="...)
	return strconv.AppendQuote(b, e.Stmt)
}

// UnmarshalEvent parses a line produced by Marshal. Unknown keys are
// ignored so the format can grow.
func UnmarshalEvent(line string) (Event, error) {
	var esc strings.Builder
	return DecodeEvent(line, &esc)
}

// required names the fields every trace line carries, in the order a
// missing one is reported.
var required = [...]string{"event", "status", "pc"}

// DecodeEvent is UnmarshalEvent for a reader of many lines. A quoted
// value is a substring of line unless unquoting changes its bytes (an
// escape, or invalid UTF-8); then it is decoded into esc, so a reader
// that grows esc once shares one buffer among all its events.
func DecodeEvent(line string, esc *strings.Builder) (Event, error) {
	var e Event
	rest := strings.TrimSpace(line)
	if rest == "" {
		return e, fmt.Errorf("profiler: empty trace line")
	}
	var seen [len(required)]bool
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return e, fmt.Errorf("profiler: malformed trace line near %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		var val string
		quoted := strings.HasPrefix(rest, `"`)
		if quoted {
			unq, n, err := unquotePrefix(rest, esc)
			if err != nil {
				return e, fmt.Errorf("profiler: bad quoted value for %s: %w", key, err)
			}
			val = unq
			rest = strings.TrimLeft(rest[n:], " ")
		} else {
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				val, rest = rest, ""
			} else {
				val, rest = rest[:sp], strings.TrimLeft(rest[sp:], " ")
			}
		}
		if err := setField(&e, key, val, quoted); err != nil {
			return e, err
		}
		for i, req := range required {
			if key == req {
				seen[i] = true
			}
		}
	}
	for i, req := range required {
		if !seen[i] {
			return e, fmt.Errorf("profiler: trace line missing %s field", req)
		}
	}
	return e, nil
}

func setField(e *Event, key, val string, quoted bool) error {
	num := func() (int64, error) {
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("profiler: bad %s value %q", key, val)
		}
		return n, nil
	}
	switch key {
	case "event":
		n, err := num()
		if err != nil {
			return err
		}
		e.Seq = n
	case "status":
		st, err := ParseState(val)
		if err != nil {
			return err
		}
		e.State = st
	case "pc":
		n, err := num()
		if err != nil {
			return err
		}
		e.PC = int(n)
	case "thread":
		n, err := num()
		if err != nil {
			return err
		}
		e.Thread = int(n)
	case "clk":
		n, err := num()
		if err != nil {
			return err
		}
		e.ClkUs = n
	case "usec":
		n, err := num()
		if err != nil {
			return err
		}
		e.DurUs = n
	case "rss":
		n, err := num()
		if err != nil {
			return err
		}
		e.RSSKB = n
	case "reads":
		n, err := num()
		if err != nil {
			return err
		}
		e.Reads = n
	case "writes":
		n, err := num()
		if err != nil {
			return err
		}
		e.Writes = n
	case "stmt":
		if !quoted {
			return fmt.Errorf("profiler: stmt value must be quoted")
		}
		e.Stmt = val
	}
	return nil
}

// unquotePrefix unquotes the leading Go-quoted string of s and returns
// the value plus the number of input bytes consumed, decoding into esc
// only when unquoting changes the bytes.
func unquotePrefix(s string, esc *strings.Builder) (string, int, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", 0, fmt.Errorf("not quoted")
	}
	plain := true // no escape, newline or non-ASCII byte so far
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			plain = false
			i++
		case c == '"':
			if plain {
				return s[1:i], i + 1, nil
			}
			unq, err := unquote(s[1:i], esc)
			if err != nil {
				return "", 0, err
			}
			return unq, i + 1, nil
		case c == '\n' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	return "", 0, fmt.Errorf("unterminated quote")
}

// unquote is strconv.Unquote of a double-quoted string with the given
// body, which holds no unescaped quote: the same value and the same
// verdict, decoded into esc instead of a string of its own.
func unquote(body string, esc *strings.Builder) (string, error) {
	if strings.IndexByte(body, '\\') < 0 && strings.IndexByte(body, '\n') < 0 && utf8.ValidString(body) {
		return body, nil
	}
	esc.Grow(len(body))
	start := esc.Len()
	for in := body; len(in) > 0; {
		// A run of plain ASCII unquotes to itself.
		j := 0
		for j < len(in) && in[j] != '\\' && in[j] != '\n' && in[j] != '"' && in[j] < utf8.RuneSelf {
			j++
		}
		esc.WriteString(in[:j])
		if in = in[j:]; len(in) == 0 {
			break
		}
		r, multibyte, rest, err := strconv.UnquoteChar(in, '"')
		if in[0] == '\n' || err != nil {
			return "", strconv.ErrSyntax
		}
		in = rest
		if r < utf8.RuneSelf || !multibyte {
			esc.WriteByte(byte(r))
		} else {
			esc.WriteRune(r)
		}
	}
	return esc.String()[start:], nil
}
