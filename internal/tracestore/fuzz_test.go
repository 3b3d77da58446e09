package tracestore

import (
	"reflect"
	"testing"
	"time"
)

// FuzzRecordDecode throws arbitrary record payloads (the bytes after
// the type byte) at every record decoder: none may panic, and whatever
// decodes must re-encode to bytes that decode to the same value.
// Exercised at length in nightly CI (see .github/workflows/nightly.yml).
func FuzzRecordDecode(f *testing.F) {
	m := RunMeta{
		SQL: "select 1", Dot: "digraph{n0}", Start: time.Unix(0, 12345),
		Partitions: 8, Workers: 4, Instructions: 17,
		AutoTuned: true, TuneReason: "auto: rows=60175 procs=4 -> 8 partitions",
	}
	f.Add(encodeBegin(42, m)[1:])
	f.Add(encodeBeginLegacy(7, m)[1:]) // no auto-tune trailer
	f.Add(encodeEvents(42, synthEvents(3, 100))[1:])
	f.Add(encodeEvents(42, nil)[1:])
	f.Add(encodeEnd(42, RunStats{ElapsedUs: 700, Rows: 3, CacheHit: true})[1:])
	f.Add(encodeEnd(42, RunStats{ElapsedUs: 1, Err: "context canceled"})[1:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if id, m, err := decodeBegin(b); err == nil {
			id2, m2, err := decodeBegin(encodeBegin(id, m)[1:])
			if err != nil || id2 != id || !reflect.DeepEqual(m2, m) {
				t.Fatalf("begin %d %+v re-decoded as %d %+v, %v", id, m, id2, m2, err)
			}
		}
		decodeEventsHeader(b)
		if id, evs, err := decodeEvents(b, nil); err == nil {
			again := encodeEvents(id, evs)[1:]
			id2, evs2, err := decodeEvents(again, nil)
			if err != nil || id2 != id || !reflect.DeepEqual(evs2, evs) {
				t.Fatalf("events of run %d (%d) re-decoded as run %d (%d), %v", id, len(evs), id2, len(evs2), err)
			}
			if hid, count, err := decodeEventsHeader(again); err != nil || hid != id || count != len(evs) {
				t.Fatalf("re-encoded header = run %d count %d, %v; want run %d count %d", hid, count, err, id, len(evs))
			}
		}
		if id, st, err := decodeEnd(b); err == nil {
			id2, st2, err := decodeEnd(encodeEnd(id, st)[1:])
			if err != nil || id2 != id || st2 != st {
				t.Fatalf("end %d %+v re-decoded as %d %+v, %v", id, st, id2, st2, err)
			}
		}
	})
}
