// On-disk record format of the trace store.
//
// A segment file is a sequence of length-prefixed, checksummed records:
//
//	u32le payloadLen | u32le crc32(payload) | payload
//
// Every record is one whole run, written once after the run ended:
//
//	recRun (1 byte) | runID (u64le) |
//	start | partitions | workers | instructions | flags | sql | tune |
//	elapsedUs | rows | err | eventCount | dot | events
//
// The fixed-width id lets Record encode the payload outside the store
// lock and patch the id in under it. Everything before the dot is the
// run's index entry; the dot and the varint-packed events are the body
// only Load decodes. Appends are sequential, so a crash can only tear
// the last record of the last segment: Open detects it by its short
// length or checksum mismatch and truncates it, losing at most the run
// being written.
package tracestore

import (
	"encoding/binary"
	"fmt"
	"time"

	"stethoscope/internal/fsio"
	"stethoscope/internal/profiler"
)

// recRun is the type byte of a run record. Types 1–3 were the begin,
// events and end records of the older multi-record format, which Open
// skips.
const recRun byte = 4

// recHeaderLen is the fixed record header: payload length + CRC
// (the shared fsio framing).
const recHeaderLen = fsio.RecordHeaderLen

// maxRecordBytes bounds a single record: Record refuses a larger run,
// and anything larger read back from disk is treated as corruption
// rather than allocated.
const maxRecordBytes = 64 << 20

// Flag bits of a run record.
const (
	flagAutoTuned byte = 1 << iota
	flagCacheHit
	flagInstantiated
)

// RunMeta is what a run is started with.
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
	// Instantiated reports that the plan was an instance of a template
	// of the statement's shape (the plan cache missed, nothing was
	// lowered); CacheHit, in RunStats, that compilation was skipped.
	Instantiated bool
}

// RunStats is a run's completion accounting.
type RunStats struct {
	ElapsedUs int64
	Rows      int
	CacheHit  bool
	Err       string // execution error; empty on success
}

// appendRun appends a run payload — type byte, info.ID, the head fields
// of info, len(evs), dot, evs — to b.
func appendRun(b []byte, info RunInfo, dot string, evs []profiler.Event) []byte {
	b = append(b, recRun)
	b = binary.LittleEndian.AppendUint64(b, info.ID)
	b = binary.AppendVarint(b, info.Start.UnixNano())
	b = binary.AppendUvarint(b, uint64(info.Partitions))
	b = binary.AppendUvarint(b, uint64(info.Workers))
	b = binary.AppendUvarint(b, uint64(info.Instructions))
	var flags byte
	if info.AutoTuned {
		flags |= flagAutoTuned
	}
	if info.CacheHit {
		flags |= flagCacheHit
	}
	if info.Instantiated {
		flags |= flagInstantiated
	}
	b = append(b, flags)
	b = appendString(b, info.SQL)
	b = appendString(b, info.TuneReason)
	b = binary.AppendVarint(b, info.ElapsedUs)
	b = binary.AppendUvarint(b, uint64(info.Rows))
	b = appendString(b, info.Err)
	b = binary.AppendUvarint(b, uint64(len(evs)))
	b = appendString(b, dot)
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

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// recordError is the trace store's wording for a record payload field
// that cannot be read (see fsio.Reader).
func recordError(kind string, _ int) error {
	return fmt.Errorf("tracestore: truncated %s in record payload", kind)
}

// decodeRun parses a run payload after its type byte. With body false
// it stops after the event count — what Open's index scan needs — and
// returns an empty dot and no events.
func decodeRun(b []byte, body bool) (info RunInfo, dot string, evs []profiler.Event, err error) {
	r := &fsio.Reader{B: b, Fail: recordError}
	if len(b) < 8 {
		return info, "", nil, recordError("run id", 0)
	}
	info.ID = binary.LittleEndian.Uint64(b)
	r.Pos = 8
	info.Start = time.Unix(0, r.Varint())
	info.Partitions = int(r.Uvarint())
	info.Workers = int(r.Uvarint())
	info.Instructions = int(r.Uvarint())
	flags := r.Byte()
	info.AutoTuned = flags&flagAutoTuned != 0
	info.CacheHit = flags&flagCacheHit != 0
	info.Instantiated = flags&flagInstantiated != 0
	info.SQL = r.Str()
	info.TuneReason = r.Str()
	info.ElapsedUs = r.Varint()
	info.Rows = int(r.Uvarint())
	info.Err = r.Str()
	count := r.Uvarint()
	if r.Err != nil || !body {
		info.Events = int(count)
		return info, "", nil, r.Err
	}
	dot = r.Str()
	// Every event takes at least ten bytes; the bytes left bound the
	// preallocation against a corrupt count.
	evs = make([]profiler.Event, 0, min(count, uint64(len(b)-r.Pos)/10))
	for i := uint64(0); i < count && r.Err == nil; i++ {
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
		evs = append(evs, e)
	}
	if r.Err != nil {
		return info, "", nil, r.Err
	}
	info.Events = len(evs)
	return info, dot, evs, nil
}
