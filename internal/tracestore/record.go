// On-disk record format of the trace store.
//
// A segment file is a sequence of length-prefixed, checksummed records:
//
//	u32le payloadLen | u32le crc32(payload) | payload
//
// The payload starts with a one-byte record type followed by the run id
// as a uvarint; the rest is type-specific. Three record types exist:
//
//	begin  — run metadata: start time, SQL text, execution settings,
//	         and the plan's dot text (so a stored run replays through
//	         the offline analysis path without recompiling).
//	events — a batch of profiler events, varint-packed.
//	end    — completion statistics: elapsed time, result rows, plan
//	         cache hit, and the execution error (empty on success).
//
// Records of concurrent runs interleave freely within a segment; the
// run id on every record reassembles them. A crash can only tear the
// last record of the last segment (appends are sequential); Open
// detects the torn tail by its short length or checksum mismatch and
// truncates it, losing at most that one record.
package tracestore

import (
	"encoding/binary"
	"fmt"
	"time"

	"stethoscope/internal/fsio"
	"stethoscope/internal/profiler"
)

// Record types.
const (
	recBegin  byte = 1
	recEvents byte = 2
	recEnd    byte = 3
)

// recHeaderLen is the fixed record header: payload length + CRC
// (the shared fsio framing).
const recHeaderLen = fsio.RecordHeaderLen

// maxRecordBytes bounds a single record; anything larger read back from
// disk is treated as corruption rather than allocated.
const maxRecordBytes = 64 << 20

// RunMeta is the metadata written with a run's begin record.
type RunMeta struct {
	SQL          string
	Dot          string // plan dot text, kept for offline replay
	Start        time.Time
	Partitions   int
	Workers      int
	Instructions int
	// AutoTuned reports that Partitions/Workers were chosen adaptively
	// (stethoscope.Auto) rather than configured; TuneReason records what
	// the selection saw (row counts, cores) and what it picked, so a
	// stored trace explains its own fan-out.
	AutoTuned  bool
	TuneReason string
}

// RunStats is the completion accounting written with an end record.
type RunStats struct {
	ElapsedUs int64
	Rows      int
	CacheHit  bool
	Err       string // execution error; empty on success
}

// encodeBegin renders a begin payload.
func encodeBegin(id uint64, m RunMeta) []byte {
	b := make([]byte, 0, 64+len(m.SQL)+len(m.Dot))
	b = append(b, recBegin)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendVarint(b, m.Start.UnixNano())
	b = binary.AppendUvarint(b, uint64(m.Partitions))
	b = binary.AppendUvarint(b, uint64(m.Workers))
	b = binary.AppendUvarint(b, uint64(m.Instructions))
	b = appendString(b, m.SQL)
	b = appendString(b, m.Dot)
	// Auto-tune trailer, appended after the original field set: decoders
	// treat its absence as "not auto-tuned", which keeps pre-trailer
	// stores readable.
	var flags byte
	if m.AutoTuned {
		flags |= 1
	}
	b = append(b, flags)
	b = appendString(b, m.TuneReason)
	return b
}

// encodeEvents renders an events payload.
func encodeEvents(id uint64, evs []profiler.Event) []byte {
	n := 0
	for i := range evs {
		n += 40 + len(evs[i].Stmt)
	}
	b := make([]byte, 0, 16+n)
	b = append(b, recEvents)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(len(evs)))
	for i := range evs {
		e := &evs[i]
		b = binary.AppendVarint(b, e.Seq)
		b = append(b, byte(e.State))
		b = binary.AppendVarint(b, int64(e.PC))
		b = binary.AppendVarint(b, int64(e.Thread))
		b = binary.AppendVarint(b, e.ClkUs)
		b = binary.AppendVarint(b, e.DurUs)
		b = binary.AppendVarint(b, e.RSSKB)
		b = binary.AppendVarint(b, e.Reads)
		b = binary.AppendVarint(b, e.Writes)
		b = appendString(b, e.Stmt)
	}
	return b
}

// encodeEnd renders an end payload.
func encodeEnd(id uint64, st RunStats) []byte {
	b := make([]byte, 0, 32+len(st.Err))
	b = append(b, recEnd)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendVarint(b, st.ElapsedUs)
	b = binary.AppendUvarint(b, uint64(st.Rows))
	var flags byte
	if st.CacheHit {
		flags |= 1
	}
	b = append(b, flags)
	b = appendString(b, st.Err)
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// recordError is the trace store's wording for a record payload field
// that cannot be read (see fsio.Reader).
func recordError(kind string, _ int) error {
	return fmt.Errorf("tracestore: truncated %s in record payload", kind)
}

// decodeBegin parses a begin payload (after the type byte).
func decodeBegin(b []byte) (id uint64, m RunMeta, err error) {
	r := &fsio.Reader{B: b, Fail: recordError}
	id = r.Uvarint()
	m.Start = time.Unix(0, r.Varint())
	m.Partitions = int(r.Uvarint())
	m.Workers = int(r.Uvarint())
	m.Instructions = int(r.Uvarint())
	m.SQL = r.Str()
	m.Dot = r.Str()
	// The auto-tune trailer is optional: begin records written before it
	// existed end here and decode with the zero values.
	if r.Err == nil && r.Pos < len(r.B) {
		m.AutoTuned = r.Byte()&1 != 0
		m.TuneReason = r.Str()
	}
	return id, m, r.Err
}

// decodeEventsHeader parses just the run id and event count of an events
// payload — what the index scan needs without materializing the batch.
func decodeEventsHeader(b []byte) (id uint64, count int, err error) {
	r := &fsio.Reader{B: b, Fail: recordError}
	id = r.Uvarint()
	count = int(r.Uvarint())
	return id, count, r.Err
}

// decodeEvents parses a full events payload, appending to dst.
func decodeEvents(b []byte, dst []profiler.Event) (uint64, []profiler.Event, error) {
	r := &fsio.Reader{B: b, Fail: recordError}
	id := r.Uvarint()
	count := int(r.Uvarint())
	if r.Err != nil {
		return id, dst, r.Err
	}
	for i := 0; i < count && r.Err == nil; i++ {
		var e profiler.Event
		e.Seq = r.Varint()
		e.State = profiler.State(r.Byte())
		e.PC = int(r.Varint())
		e.Thread = int(r.Varint())
		e.ClkUs = r.Varint()
		e.DurUs = r.Varint()
		e.RSSKB = r.Varint()
		e.Reads = r.Varint()
		e.Writes = r.Varint()
		e.Stmt = r.Str()
		if r.Err == nil {
			dst = append(dst, e)
		}
	}
	return id, dst, r.Err
}

// decodeEnd parses an end payload.
func decodeEnd(b []byte) (id uint64, st RunStats, err error) {
	r := &fsio.Reader{B: b, Fail: recordError}
	id = r.Uvarint()
	st.ElapsedUs = r.Varint()
	st.Rows = int(r.Uvarint())
	st.CacheHit = r.Byte()&1 != 0
	st.Err = r.Str()
	return id, st, r.Err
}
