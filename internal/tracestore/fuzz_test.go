package tracestore

import (
	"reflect"
	"testing"
	"time"
)

// FuzzRecordDecode throws arbitrary run payloads (the bytes after the
// type byte) at the run decoder: none may panic it, and whatever decodes
// must re-encode to bytes that decode to an equal run, with the same
// index entry from the head alone. Exercised at length in nightly CI
// (see .github/workflows/nightly.yml).
func FuzzRecordDecode(f *testing.F) {
	info := RunInfo{
		ID: 42, SQL: "select 1", Start: time.Unix(0, 12345),
		Partitions: 8, Workers: 4, Instructions: 17,
		AutoTuned: true, TuneReason: "auto: rows=60175 procs=4 -> 8 partitions",
		ElapsedUs: 700, Rows: 3, CacheHit: true,
	}
	failed := RunInfo{ID: 7, SQL: "select 2", Start: time.Unix(0, 99), ElapsedUs: 1, Err: "context canceled"}
	f.Add(appendRun(nil, info, "digraph{n0}", synthEvents(3, 100))[1:])
	f.Add(appendRun(nil, info, "", nil)[1:])
	f.Add(appendRun(nil, failed, "digraph{}", synthEvents(1, 5))[1:])
	f.Add(appendRun(nil, failed, "digraph{}", synthEvents(1, 5))[1:20]) // cut inside the head
	full := appendRun(nil, info, "digraph{n0}", synthEvents(2, 10))
	f.Add(full[1 : len(full)-3]) // cut inside the last event
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		head, _, _, herr := decodeRun(b, false)
		info, dot, evs, err := decodeRun(b, true)
		if err != nil {
			return
		}
		if herr != nil || head != info {
			t.Fatalf("head decode = %+v, %v; full decode = %+v", head, herr, info)
		}
		again := appendRun(nil, info, dot, evs)[1:]
		info2, dot2, evs2, err := decodeRun(again, true)
		if err != nil || info2 != info || dot2 != dot || !reflect.DeepEqual(evs2, evs) {
			t.Fatalf("run %+v (%d events) re-decoded as %+v (%d events), %v", info, len(evs), info2, len(evs2), err)
		}
	})
}
