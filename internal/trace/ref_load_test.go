package trace_test

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
)

// This file holds the trace reader as it stood before it became one pass
// over the input string, verbatim apart from the ref prefix: Load over a
// bufio.Scanner, and the profiler's UnmarshalEvent with its per-line
// field map. FuzzTraceLoad holds LoadString to it, input for input: both
// accept or both reject, and what both accept is the same events.

// refLoad parses a trace file: one marshaled event per line, blank lines and
// '#' comments skipped.
func refLoad(r io.Reader) (*trace.Store, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []profiler.Event
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := refUnmarshalEvent(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineno, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return trace.FromEvents(events), nil
}

// refUnmarshalEvent parses a line produced by Marshal. Unknown keys are
// ignored so the format can grow.
func refUnmarshalEvent(line string) (profiler.Event, error) {
	var e profiler.Event
	rest := strings.TrimSpace(line)
	if rest == "" {
		return e, fmt.Errorf("profiler: empty trace line")
	}
	seen := map[string]bool{}
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return e, fmt.Errorf("profiler: malformed trace line near %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		var val string
		if strings.HasPrefix(rest, `"`) {
			unq, n, err := refUnquotePrefix(rest)
			if err != nil {
				return e, fmt.Errorf("profiler: bad quoted value for %s: %w", key, err)
			}
			val = unq
			rest = strings.TrimLeft(rest[n:], " ")
			if err := refSetField(&e, key, val, true); err != nil {
				return e, err
			}
			seen[key] = true
			continue
		}
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			val, rest = rest, ""
		} else {
			val, rest = rest[:sp], strings.TrimLeft(rest[sp:], " ")
		}
		if err := refSetField(&e, key, val, false); err != nil {
			return e, err
		}
		seen[key] = true
	}
	for _, req := range []string{"event", "status", "pc"} {
		if !seen[req] {
			return e, fmt.Errorf("profiler: trace line missing %s field", req)
		}
	}
	return e, nil
}

func refSetField(e *profiler.Event, key, val string, quoted bool) error {
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
		st, err := profiler.ParseState(val)
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

// refUnquotePrefix unquotes the leading Go-quoted string of s and returns
// the value plus the number of input bytes consumed.
func refUnquotePrefix(s string) (string, int, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", 0, fmt.Errorf("not quoted")
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", 0, err
			}
			return unq, i + 1, nil
		}
	}
	return "", 0, fmt.Errorf("unterminated quote")
}
