package netproto

import (
	"testing"

	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/engine"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

// profiledRun runs a TPC-H query at 4 partitions on 2 workers and returns
// the events its profiler emitted — what a server streams per query.
func profiledRun(tb testing.TB) []profiler.Event {
	tb.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 42}); err != nil {
		tb.Fatal(err)
	}
	stmt, err := sql.Parse("select l_returnflag, sum(l_quantity), count(*) from lineitem where l_tax > 0.02 group by l_returnflag")
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := algebra.Bind(stmt, cat)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: 4})
	if err != nil {
		tb.Fatal(err)
	}
	sink := profiler.NewOwnedSliceSink(0)
	if _, err := engine.New(cat).Run(plan, engine.Options{Workers: 2, Profiler: profiler.New(sink)}); err != nil {
		tb.Fatal(err)
	}
	return sink.Take()
}

// FuzzDatagram: datagram bytes arrive straight off the network. No input
// may panic the receive loop's per-datagram work; every message it
// delivers from a non-batch datagram re-encodes to bytes that decode to
// the same message, and every delivered event line the profiler accepts
// marshals back to a line that reads to the same event.
func FuzzDatagram(f *testing.F) {
	evs := profiledRun(f)
	for _, m := range []Msg{
		{Kind: MsgEvent, Payload: evs[0].Marshal()},
		{Kind: MsgDotBegin, Payload: "plan"},
		{Kind: MsgDotLine, Payload: `  n0 [label="X_0:bat[:int] := sql.bind(\"sys\", \"lineitem\", \"l_tax\", 0);"];`},
		{Kind: MsgDotEnd},
		{Kind: MsgHello, Payload: "mserver"},
		{Kind: MsgEventBatch, Payload: evs[0].Marshal() + "\n\n" + evs[1].Marshal()},
	} {
		f.Add(Encode(m))
	}
	packEvents(evs, func(payload string) {
		f.Add(Encode(Msg{Kind: MsgEventBatch, Payload: payload}))
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		in, _ := Decode(b)
		Dispatch(b, func(m Msg) {
			if m.Kind == MsgEventBatch {
				t.Fatalf("a batch reached the handler unexpanded: %q", m.Payload)
			}
			if in.Kind != MsgEventBatch {
				if back, err := Decode(Encode(m)); err != nil || back != m {
					t.Fatalf("%+v re-encodes to %q, which decodes to %+v, %v", m, Encode(m), back, err)
				}
			}
			if m.Kind != MsgEvent {
				return
			}
			e, err := profiler.UnmarshalEvent(m.Payload)
			if err != nil {
				return
			}
			line := e.Marshal()
			if back, err := profiler.UnmarshalEvent(line); err != nil || back != e {
				t.Fatalf("event %+v marshals to %q, which reads back as %+v, %v", e, line, back, err)
			}
		})
	})
}
