// Package tracestore is the durable query-history subsystem: an
// append-only, segmented, checksummed binary store for profiler traces.
// Every executed query becomes a run — a begin record carrying the SQL
// and plan dot text, interleaved batches of profiler events, and an end
// record with completion statistics — so "what ran slowly yesterday?"
// survives process restarts. The store offers size-based retention at
// segment granularity with an optional background compactor, crash
// recovery that truncates a torn tail record instead of failing, and
// index queries (runs in begin order or newest first, the slowest
// runs, one run's events or plan). It only stores: stored runs are
// analysed by internal/core, the same functions that analyse a live
// run. See record.go for the on-disk format.
package tracestore

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"stethoscope/internal/fsio"
	"stethoscope/internal/metrics"
	"stethoscope/internal/profiler"
)

// Defaults for Options zero values.
const (
	DefaultMaxSegmentBytes = 8 << 20
	segPrefix              = "seg-"
	segSuffix              = ".tlog"
)

// DefaultAppendBatch is how many events one durable events record
// carries: Record cuts a run's trace into records of this many events.
const DefaultAppendBatch = 256

// Options configures Open. The zero value (plus Dir) is a store with
// 8 MiB segments, unlimited retention, and no background compactor.
type Options struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxSegmentBytes is the rollover threshold (default 8 MiB).
	MaxSegmentBytes int64
	// MaxTotalBytes caps the store size; Compact deletes the oldest
	// sealed segments until under budget. 0 means unlimited.
	MaxTotalBytes int64
	// CompactEvery runs Compact on a background ticker. 0 disables the
	// background compactor (Compact can still be called directly).
	CompactEvery time.Duration
	// ReadOnly opens the store for inspection: no writer lock is taken,
	// a torn tail is skipped in memory instead of truncated on disk,
	// and Begin/Compact fail. This is how tooling (tracehist) looks at
	// a store a live server may be appending to.
	ReadOnly bool
	// Logf receives recovery and retention notices (default log.Printf).
	Logf func(format string, args ...any)
}

// recRef locates one record of a run.
type recRef struct {
	seg int
	off int64
	typ byte
}

// runEntry is the in-memory index entry of one run.
type runEntry struct {
	info RunInfo
	refs []recRef
}

// RunInfo describes one recorded run.
type RunInfo struct {
	ID           uint64
	SQL          string
	Start        time.Time
	Partitions   int
	Workers      int
	Instructions int
	// AutoTuned/TuneReason record whether (and why) the partition and
	// worker counts were chosen adaptively; see RunMeta.
	AutoTuned  bool
	TuneReason string
	// Events is the number of stored profiler events.
	Events int
	// Complete reports whether the end record was written; ElapsedUs,
	// Rows, CacheHit and Err are only meaningful when it is.
	Complete  bool
	ElapsedUs int64
	Rows      int
	CacheHit  bool
	Err       string
}

// OK reports whether the run completed without an execution error.
func (r RunInfo) OK() bool { return r.Complete && r.Err == "" }

// segMeta tracks one segment file.
type segMeta struct {
	id   int
	size int64
}

// StoreStats is a point-in-time snapshot of the store.
type StoreStats struct {
	// Segments and Bytes describe the on-disk footprint.
	Segments int
	Bytes    int64
	// Runs is the indexed run count.
	Runs int
	// RecoveredEvents is the number of events indexed from the last
	// segment during crash recovery; TruncatedBytes is the size of the
	// torn tail cut off — or skipped, on read-only opens — (0 when the
	// store closed cleanly).
	RecoveredEvents int
	TruncatedBytes  int64
	// DroppedSegments and DroppedRuns count what retention removed over
	// this store handle's lifetime.
	DroppedSegments int
	DroppedRuns     int
}

// Store is the durable trace store. All methods are safe for concurrent
// use: appends serialize under one mutex, reads snapshot the index and
// then read immutable records lock-free.
type Store struct {
	opts Options
	logf func(format string, args ...any)

	mu       sync.Mutex
	lockF    *os.File      // flock-held writer lock; nil on read-only opens
	f        *os.File      // active segment, append-only; nil on read-only opens
	w        *bufio.Writer // buffers appends to f; nil on read-only opens
	activeID int
	segs     []*segMeta // ascending by id; last is active
	index    map[uint64]*runEntry
	order    []uint64 // run ids in begin order
	nextID   uint64
	closed   bool

	recoveredEvents int
	truncatedBytes  int64
	droppedSegs     int
	droppedRuns     int

	// Metric cells, nil (no-op) until Instrument attaches a registry.
	mAppends     *metrics.Counter
	mAppendBytes *metrics.Counter
	mCompactions *metrics.Counter

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Open opens (or creates) the store at opts.Dir, rebuilding the run
// index by scanning the segments. A torn tail record in the last
// segment — the signature of a crash mid-append — is truncated and
// logged, not fatal; at most that one record is lost. Writers take an
// exclusive lock on the directory: a second writable Open fails
// instead of corrupting the live store. Read-only opens (tracehist)
// take no lock and never modify the files.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		//stetho:ignore errfile the rejected Dir is the empty string; there is no file to name
		return nil, fmt.Errorf("tracestore: Dir is required")
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	s := &Store{
		opts:   opts,
		logf:   opts.Logf,
		index:  map[uint64]*runEntry{},
		nextID: 1,
		done:   make(chan struct{}),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if !opts.ReadOnly {
		lf, err := fsio.AcquireDirLock(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("tracestore (open it ReadOnly to inspect a live store): %w", err)
		}
		s.lockF = lf
	}
	if err := s.recover(); err != nil {
		s.closeLock()
		return nil, err
	}
	if opts.ReadOnly {
		return s, nil
	}
	// Resume appending to the last segment unless it is already full.
	active := 1
	if n := len(s.segs); n > 0 {
		last := s.segs[n-1]
		if last.size >= opts.MaxSegmentBytes {
			active = last.id + 1
		} else {
			active = last.id
		}
	}
	if err := s.openSegment(active); err != nil {
		s.closeLock()
		return nil, err
	}
	if opts.CompactEvery > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(opts.CompactEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := s.Compact(); err != nil {
						s.logf("tracestore: background compaction: %v", err)
					}
				case <-s.done:
					return
				}
			}
		}()
	}
	return s, nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.opts.Dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

// openSegment makes segment id the active append target, creating it if
// needed and registering its segMeta.
func (s *Store) openSegment(id int) error {
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, 256<<10)
	s.activeID = id
	if n := len(s.segs); n == 0 || s.segs[n-1].id != id {
		s.segs = append(s.segs, &segMeta{id: id})
	}
	return nil
}

// recover scans all segments in order, rebuilding the index. Only the
// last segment may legitimately end in a torn record.
func (s *Store) recover() error {
	names, err := filepath.Glob(filepath.Join(s.opts.Dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	ids := make([]int, 0, len(names))
	for _, n := range names {
		base := filepath.Base(n)
		var id int
		if _, err := fmt.Sscanf(base, segPrefix+"%d", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := s.scanSegment(id, i == len(ids)-1); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment reads one segment sequentially, indexing its records. For
// the last segment a torn tail is truncated; for earlier segments a bad
// record is logged and the remainder skipped (the data after it is
// unreachable without valid framing).
func (s *Store) scanSegment(id int, last bool) error {
	path := s.segPath(id)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	meta := &segMeta{id: id, size: fi.Size()}
	s.segs = append(s.segs, meta)

	br := bufio.NewReaderSize(f, 256<<10)
	var off int64
	segEvents, segRuns := 0, 0
	var hdr [recHeaderLen]byte
	payload := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break // clean segment end
			}
			s.handleTorn(path, id, off, fi.Size(), last, segEvents, segRuns, meta)
			return nil
		}
		plen, crc := fsio.ParseRecordHeader(hdr[:])
		if plen == 0 || plen > maxRecordBytes {
			s.handleTorn(path, id, off, fi.Size(), last, segEvents, segRuns, meta)
			return nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			s.handleTorn(path, id, off, fi.Size(), last, segEvents, segRuns, meta)
			return nil
		}
		if fsio.Checksum(payload) != crc {
			s.handleTorn(path, id, off, fi.Size(), last, segEvents, segRuns, meta)
			return nil
		}
		ref := recRef{seg: id, off: off, typ: payload[0]}
		if n := s.indexRecord(ref, payload); n >= 0 {
			segEvents += n
			if payload[0] == recBegin {
				segRuns++
			}
		}
		off += recHeaderLen + int64(plen)
	}
	return nil
}

// handleTorn deals with a record that could not be read whole: the last
// segment is truncated at the torn offset (crash recovery); an earlier
// segment keeps its bytes but the remainder is unreachable. A
// read-only open skips the tail in memory and leaves the file alone —
// the tail may simply be the live writer's partially flushed buffer.
func (s *Store) handleTorn(path string, id int, off, size int64, last bool, segEvents, segRuns int, meta *segMeta) {
	if !last {
		s.logf("tracestore: %s: corrupt record at offset %d; ignoring remainder (%d bytes)", path, off, size-off)
		return
	}
	if s.opts.ReadOnly {
		meta.size = off
		s.truncatedBytes = size - off
		s.recoveredEvents = segEvents
		s.logf("tracestore: %s: ignoring torn tail record at offset %d (%d bytes, read-only open); recovered %d events in %d runs from segment",
			path, off, size-off, segEvents, segRuns)
		return
	}
	if err := os.Truncate(path, off); err != nil {
		s.logf("tracestore: %s: truncating torn tail: %v", path, err)
		return
	}
	meta.size = off
	s.truncatedBytes = size - off
	s.recoveredEvents = segEvents
	s.logf("tracestore: %s: truncated torn tail record at offset %d (%d bytes); recovered %d events in %d runs from segment",
		path, off, size-off, segEvents, segRuns)
}

// indexRecord folds one valid record into the index. It returns the
// number of events the record carries (0 for begin/end, -1 when the
// record was skipped).
func (s *Store) indexRecord(ref recRef, payload []byte) int {
	switch payload[0] {
	case recBegin:
		id, m, err := decodeBegin(payload[1:])
		if err != nil {
			s.logf("tracestore: skipping undecodable begin record: %v", err)
			return -1
		}
		if _, dup := s.index[id]; dup {
			s.logf("tracestore: duplicate run id %d; keeping first", id)
			return -1
		}
		s.index[id] = &runEntry{
			info: RunInfo{
				ID: id, SQL: m.SQL, Start: m.Start,
				Partitions: m.Partitions, Workers: m.Workers, Instructions: m.Instructions,
				AutoTuned: m.AutoTuned, TuneReason: m.TuneReason,
			},
			refs: []recRef{ref},
		}
		s.order = append(s.order, id)
		if id >= s.nextID {
			s.nextID = id + 1
		}
		return 0
	case recEvents:
		id, count, err := decodeEventsHeader(payload[1:])
		if err != nil {
			s.logf("tracestore: skipping undecodable events record: %v", err)
			return -1
		}
		e, ok := s.index[id]
		if !ok {
			return -1 // begin record was retired with an older segment
		}
		e.refs = append(e.refs, ref)
		e.info.Events += count
		return count
	case recEnd:
		id, st, err := decodeEnd(payload[1:])
		if err != nil {
			s.logf("tracestore: skipping undecodable end record: %v", err)
			return -1
		}
		e, ok := s.index[id]
		if !ok {
			return -1
		}
		e.refs = append(e.refs, ref)
		e.info.Complete = true
		e.info.ElapsedUs = st.ElapsedUs
		e.info.Rows = st.Rows
		e.info.CacheHit = st.CacheHit
		e.info.Err = st.Err
		return 0
	default:
		s.logf("tracestore: skipping record of unknown type %d", payload[0])
		return -1
	}
}

// appendLocked writes one record to the active segment, rolling over
// first when the record would push the segment past MaxSegmentBytes.
func (s *Store) appendLocked(payload []byte) (recRef, error) {
	if s.closed {
		return recRef{}, fmt.Errorf("tracestore: store is closed")
	}
	if s.w == nil {
		return recRef{}, fmt.Errorf("tracestore: store is read-only")
	}
	active := s.segs[len(s.segs)-1]
	recLen := int64(recHeaderLen + len(payload))
	if active.size > 0 && active.size+recLen > s.opts.MaxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return recRef{}, err
		}
		active = s.segs[len(s.segs)-1]
	}
	var hdr [recHeaderLen]byte
	fsio.PutRecordHeader(hdr[:], payload)
	off := active.size
	if _, err := s.w.Write(hdr[:]); err != nil {
		return recRef{}, fmt.Errorf("tracestore: %w", err)
	}
	if _, err := s.w.Write(payload); err != nil {
		return recRef{}, fmt.Errorf("tracestore: %w", err)
	}
	active.size += recLen
	s.mAppends.Inc()
	s.mAppendBytes.Add(recLen)
	return recRef{seg: s.activeID, off: off, typ: payload[0]}, nil
}

// rotateLocked seals the active segment (flush + sync + close) and
// starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return s.openSegment(s.activeID + 1)
}

// Record writes one finished run — its metadata, its events in records
// of DefaultAppendBatch, and its completion statistics — and returns the
// new run id. It is the one writer of a run's history: the run service
// calls it once a run has returned, failed runs included (st.Err set,
// events as far as the run got).
func (s *Store) Record(meta RunMeta, events []profiler.Event, st RunStats) (uint64, error) {
	w, err := s.Begin(meta)
	if err != nil {
		return 0, err
	}
	for len(events) > 0 {
		n := min(len(events), DefaultAppendBatch)
		w.EmitBatch(events[:n])
		events = events[n:]
	}
	if err := w.Finish(st); err != nil {
		return 0, err
	}
	return w.id, nil
}

// Begin opens a new run and durably records its metadata. The returned
// RunWriter appends the run's events and its end record.
func (s *Store) Begin(meta RunMeta) (*RunWriter, error) {
	if meta.Start.IsZero() {
		meta.Start = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("tracestore: store is closed")
	}
	id := s.nextID
	s.nextID++
	ref, err := s.appendLocked(encodeBegin(id, meta))
	if err != nil {
		return nil, err
	}
	s.index[id] = &runEntry{
		info: RunInfo{
			ID: id, SQL: meta.SQL, Start: meta.Start,
			Partitions: meta.Partitions, Workers: meta.Workers, Instructions: meta.Instructions,
			AutoTuned: meta.AutoTuned, TuneReason: meta.TuneReason,
		},
		refs: []recRef{ref},
	}
	s.order = append(s.order, id)
	return &RunWriter{s: s, id: id}, nil
}

// RunWriter appends one run's events and completion record. It
// implements profiler.BatchSink. Append errors are sticky: the first one
// is kept and returned by Finish.
type RunWriter struct {
	s  *Store
	id uint64

	mu   sync.Mutex
	err  error
	done bool
}

// ID returns the run id.
func (w *RunWriter) ID() uint64 { return w.id }

// EmitBatch implements profiler.BatchSink: the batch is encoded into
// one events record. The slice is consumed during the call, honoring
// the BatchSink contract.
func (w *RunWriter) EmitBatch(evs []profiler.Event) {
	if len(evs) == 0 {
		return
	}
	payload := encodeEvents(w.id, evs) // encode outside the store lock
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done || w.err != nil {
		return
	}
	s := w.s
	s.mu.Lock()
	ref, err := s.appendLocked(payload)
	if err == nil {
		if e, ok := s.index[w.id]; ok {
			e.refs = append(e.refs, ref)
			e.info.Events += len(evs)
		}
	}
	s.mu.Unlock()
	w.err = err
}

// Finish writes the end record and flushes the segment buffer so the
// completed run is immediately durable against everything but power
// loss (fsync happens on rollover and Close). It returns the first
// append error of the run, if any.
func (w *RunWriter) Finish(st RunStats) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("tracestore: run %d already finished", w.id)
	}
	w.done = true
	if w.err != nil {
		return w.err
	}
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, err := s.appendLocked(encodeEnd(w.id, st))
	if err != nil {
		return err
	}
	if e, ok := s.index[w.id]; ok {
		e.refs = append(e.refs, ref)
		e.info.Complete = true
		e.info.ElapsedUs = st.ElapsedUs
		e.info.Rows = st.Rows
		e.info.CacheHit = st.CacheHit
		e.info.Err = st.Err
	}
	return s.w.Flush()
}

// Runs lists all indexed runs in begin order.
func (s *Store) Runs() []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunInfo, 0, len(s.order))
	for _, id := range s.order {
		if e, ok := s.index[id]; ok {
			out = append(out, e.info)
		}
	}
	return out
}

// Recent lists the indexed runs newest first; n <= 0 returns all of
// them.
func (s *Store) Recent(n int) []RunInfo {
	runs := s.Runs()
	slices.Reverse(runs)
	if n > 0 && n < len(runs) {
		runs = runs[:n]
	}
	return runs
}

// TopN returns the n slowest successfully completed runs, slowest
// first. n <= 0 returns all of them.
func (s *Store) TopN(n int) []RunInfo {
	runs := s.Runs()
	ok := runs[:0]
	for _, r := range runs {
		if r.OK() {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].ElapsedUs != ok[j].ElapsedUs {
			return ok[i].ElapsedUs > ok[j].ElapsedUs
		}
		return ok[i].ID < ok[j].ID
	})
	if n > 0 && n < len(ok) {
		ok = ok[:n]
	}
	return ok
}

// Run returns one run's metadata.
func (s *Store) Run(id uint64) (RunInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return RunInfo{}, false
	}
	return e.info, true
}

// snapshot flushes pending appends and copies a run's index entry, so
// the subsequent record reads need no lock.
func (s *Store) snapshot(id uint64) (RunInfo, []recRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return RunInfo{}, nil, fmt.Errorf("tracestore: unknown run %d", id)
	}
	if !s.closed && s.w != nil {
		if err := s.w.Flush(); err != nil {
			return RunInfo{}, nil, fmt.Errorf("tracestore: %w", err)
		}
	}
	return e.info, append([]recRef(nil), e.refs...), nil
}

// readRecordAt reads and verifies one record through the shared fsio
// framing.
func readRecordAt(f *os.File, off int64) ([]byte, error) {
	payload, err := fsio.ReadRecordAt(f, off, maxRecordBytes)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %s: %w", f.Name(), err)
	}
	return payload, nil
}

// readRun visits the run's records of the wanted type in append order.
func (s *Store) readRun(id uint64, want byte, visit func(payload []byte) error) (RunInfo, error) {
	info, refs, err := s.snapshot(id)
	if err != nil {
		return info, err
	}
	var f *os.File
	cur := -1
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, ref := range refs {
		if ref.typ != want {
			continue
		}
		if ref.seg != cur {
			if f != nil {
				f.Close()
			}
			f, err = os.Open(s.segPath(ref.seg))
			if err != nil {
				return info, fmt.Errorf("tracestore: run %d: %w", id, err)
			}
			cur = ref.seg
		}
		payload, err := readRecordAt(f, ref.off)
		if err != nil {
			return info, fmt.Errorf("tracestore: run %d: %w", id, err)
		}
		if err := visit(payload[1:]); err != nil {
			return info, err
		}
	}
	return info, nil
}

// Events returns a run's full event stream in append order — identical
// to what the profiler emitted while the query executed.
func (s *Store) Events(id uint64) ([]profiler.Event, error) {
	var out []profiler.Event
	if _, err := s.readRun(id, recEvents, func(payload []byte) error {
		var derr error
		_, out, derr = decodeEvents(payload, out)
		return derr
	}); err != nil {
		return nil, err
	}
	if out == nil {
		out = make([]profiler.Event, 0)
	}
	return out, nil
}

// Dot returns a run's stored plan dot text.
func (s *Store) Dot(id uint64) (string, error) {
	var dot string
	_, err := s.readRun(id, recBegin, func(payload []byte) error {
		_, m, derr := decodeBegin(payload)
		if derr != nil {
			return derr
		}
		dot = m.Dot
		return nil
	})
	return dot, err
}

// Compact enforces the retention policy now: sealed segments are
// deleted oldest-first while the store exceeds MaxTotalBytes. Runs with any record in a deleted segment are dropped from the index.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("tracestore: %s: store is closed", s.opts.Dir)
	}
	if s.opts.ReadOnly {
		return fmt.Errorf("tracestore: %s: store is read-only", s.opts.Dir)
	}
	var total int64
	for _, sg := range s.segs {
		total += sg.size
	}
	drop := map[int]bool{}
	// The active segment (last) is never dropped.
	for _, sg := range s.segs[:len(s.segs)-1] {
		if s.opts.MaxTotalBytes <= 0 || total <= s.opts.MaxTotalBytes {
			break
		}
		drop[sg.id] = true
		total -= sg.size
	}
	if len(drop) == 0 {
		return nil
	}
	s.mCompactions.Inc()
	var firstErr error
	kept := s.segs[:0]
	for _, sg := range s.segs {
		if !drop[sg.id] {
			kept = append(kept, sg)
			continue
		}
		if err := os.Remove(s.segPath(sg.id)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tracestore: %w", err)
		}
		s.droppedSegs++
	}
	s.segs = kept
	keptOrder := s.order[:0]
	for _, id := range s.order {
		e, ok := s.index[id]
		if !ok {
			continue
		}
		retire := false
		for _, ref := range e.refs {
			if drop[ref.seg] {
				retire = true
				break
			}
		}
		if retire {
			delete(s.index, id)
			s.droppedRuns++
			continue
		}
		keptOrder = append(keptOrder, id)
	}
	s.order = keptOrder
	return firstErr
}

// Stats snapshots the store's footprint and maintenance counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Segments:        len(s.segs),
		Runs:            len(s.index),
		RecoveredEvents: s.recoveredEvents,
		TruncatedBytes:  s.truncatedBytes,
		DroppedSegments: s.droppedSegs,
		DroppedRuns:     s.droppedRuns,
	}
	for _, sg := range s.segs {
		st.Bytes += sg.size
	}
	return st
}

// Close stops the background compactor, seals the active segment
// (flush + fsync), and releases the writer lock. The store must not be
// used afterwards.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.closed = true
		if s.w != nil {
			if ferr := s.w.Flush(); ferr != nil {
				err = fmt.Errorf("tracestore: %w", ferr)
			}
			if serr := s.f.Sync(); serr != nil && err == nil {
				err = fmt.Errorf("tracestore: %w", serr)
			}
			if cerr := s.f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("tracestore: %w", cerr)
			}
		}
		s.closeLock()
	})
	return err
}

// closeLock releases the writer lock file (flock drops with the fd).
func (s *Store) closeLock() {
	fsio.ReleaseLock(s.lockF)
	s.lockF = nil
}

// Instrument registers the store's metric cells (stetho_tracestore_*)
// in the registry: append and compaction counters on the write path,
// and gauges over the recovery/retention figures Stats already tracks.
// Call right after Open, before serving writes.
func (s *Store) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.mAppends = reg.Counter("stetho_tracestore_appends_total")
	s.mAppendBytes = reg.Counter("stetho_tracestore_append_bytes_total")
	s.mCompactions = reg.Counter("stetho_tracestore_compactions_total")
	s.mu.Unlock()
	reg.GaugeFunc("stetho_tracestore_recovered_events", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.recoveredEvents)
	})
	reg.GaugeFunc("stetho_tracestore_dropped_segments", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.droppedSegs)
	})
	reg.GaugeFunc("stetho_tracestore_dropped_runs", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.droppedRuns)
	})
	reg.GaugeFunc("stetho_tracestore_bytes", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var total int64
		for _, sg := range s.segs {
			total += sg.size
		}
		return total
	})
}
