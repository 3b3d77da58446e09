// Package tracestore is the durable query-history subsystem: an
// append-only, segmented, checksummed binary store for profiler traces.
// Every executed query becomes a run — one record carrying the SQL,
// settings, completion statistics, plan dot text and profiler events —
// so "what ran slowly yesterday?" survives process restarts. The store
// offers size-based retention at segment granularity with an optional
// background compactor, crash recovery that truncates a torn tail
// record instead of failing, and index queries (runs in completion
// order or newest first, the slowest runs, one run's record). It only
// stores: stored runs are analysed by internal/core, the same functions
// that analyse a live run. See record.go for the on-disk format.
package tracestore

import (
	"bufio"
	"cmp"
	"encoding/binary"
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

// DefaultAppendBatch is the batch size a profiler.Batcher feeding a
// RunWriter is built with (see Begin).
//
//stetho:ignore deadexport bench/trace.go's history leg uses it until ROADMAP 5(g) deletes the Begin/RunWriter shim
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
	// and Record/Begin/Compact fail. This is how tooling (tracehist) looks at
	// a store a live server may be appending to.
	ReadOnly bool
	// Logf receives recovery and retention notices (default log.Printf).
	Logf func(format string, args ...any)
}

// runEntry is the in-memory index entry of one run: its info and
// where its record starts.
type runEntry struct {
	info RunInfo
	seg  int
	off  int64
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
	Events    int
	ElapsedUs int64
	Rows      int
	CacheHit  bool
	Err       string
}

// OK reports whether the run completed without an execution error.
func (r RunInfo) OK() bool { return r.Err == "" }

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

	mu     sync.Mutex
	lockF  *os.File   // flock-held writer lock; nil on read-only opens
	f      *os.File   // active segment, append-only; nil on read-only opens
	segs   []*segMeta // ascending by id; last is active
	runs   []runEntry // ascending by run id, which is completion order
	nextID uint64
	closed bool

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
// logged, not fatal; at most the run being written is lost. Records of
// the older multi-record format are skipped, one log line per segment,
// and left on disk. Writers take an exclusive lock on the directory: a
// second writable Open fails instead of corrupting the live store.
// Read-only opens (tracehist) take no lock and never modify the files.
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

// scanSegment reads one segment sequentially, indexing its runs. A
// record that cannot be read whole ends the scan (see handleTorn).
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
	var payload []byte
	segEvents, segRuns, older := 0, 0, 0
	for {
		payload, err = fsio.ReadRecord(br, payload, maxRecordBytes)
		if err == io.EOF {
			break // clean segment end
		}
		if err != nil {
			s.handleTorn(path, meta, off, last, segEvents, segRuns)
			break
		}
		if payload[0] != recRun {
			older++
		} else if n, ok := s.indexRun(id, off, payload[1:]); ok {
			segEvents += n
			segRuns++
		}
		off += recHeaderLen + int64(len(payload))
	}
	if older > 0 {
		s.logf("tracestore: %s: skipped %d records of the older multi-record format", path, older)
	}
	return nil
}

// handleTorn deals with a record at off that could not be read whole:
// the last segment is truncated there (crash recovery); an earlier
// segment keeps its bytes but the remainder is unreachable. A
// read-only open skips the tail in memory and leaves the file alone —
// the tail may simply be the live writer's record in flight.
func (s *Store) handleTorn(path string, meta *segMeta, off int64, last bool, segEvents, segRuns int) {
	size := meta.size
	if !last {
		s.logf("tracestore: %s: corrupt record at offset %d; ignoring remainder (%d bytes)", path, off, size-off)
		return
	}
	verb := "truncated"
	if s.opts.ReadOnly {
		verb = "ignoring"
	} else if err := os.Truncate(path, off); err != nil {
		s.logf("tracestore: %s: truncating torn tail: %v", path, err)
		return
	}
	meta.size = off
	s.truncatedBytes = size - off
	s.recoveredEvents = segEvents
	s.logf("tracestore: %s: %s torn tail record at offset %d (%d bytes); recovered %d events in %d runs from segment",
		path, verb, off, size-off, segEvents, segRuns)
}

// indexRun adds the run record at (seg, off) to the index — b is its
// payload after the type byte — and returns the run's event count. A
// record that does not decode, or whose id does not follow the last
// indexed one, is skipped.
func (s *Store) indexRun(seg int, off int64, b []byte) (int, bool) {
	info, _, _, err := decodeRun(b, false)
	if err != nil {
		s.logf("tracestore: skipping undecodable run record: %v", err)
		return 0, false
	}
	if info.ID < s.nextID {
		s.logf("tracestore: skipping run %d: its id does not follow run %d", info.ID, s.nextID-1)
		return 0, false
	}
	s.runs = append(s.runs, runEntry{info: info, seg: seg, off: off})
	s.nextID = info.ID + 1
	return info.Events, true
}

// writableLocked reports why the store takes no writes, if it does not.
func (s *Store) writableLocked() error {
	if s.closed {
		return fmt.Errorf("tracestore: %s: store is closed", s.opts.Dir)
	}
	if s.f == nil {
		return fmt.Errorf("tracestore: %s: store is read-only", s.opts.Dir)
	}
	return nil
}

// Record writes one finished run as one record and returns its id. It
// is the one writer of a run's history: the run service calls it once a
// run has returned, failed runs included (st.Err set, events as far as
// the run got). The record is encoded outside the store lock; under it
// the run gets its id — so ids follow completion order — and is
// appended and indexed. A run whose record would exceed maxRecordBytes
// is refused and nothing is written. The segment is written straight
// through, no user-space buffer, so a recorded run is durable against
// everything but power loss (fsync happens on rollover and Close).
func (s *Store) Record(meta RunMeta, events []profiler.Event, st RunStats) (uint64, error) {
	if meta.Start.IsZero() {
		meta.Start = time.Now()
	}
	info := RunInfo{
		SQL: meta.SQL, Start: meta.Start,
		Partitions: meta.Partitions, Workers: meta.Workers, Instructions: meta.Instructions,
		AutoTuned: meta.AutoTuned, TuneReason: meta.TuneReason,
		Events: len(events), ElapsedUs: st.ElapsedUs, Rows: st.Rows, CacheHit: st.CacheHit, Err: st.Err,
	}
	n := recHeaderLen + 64 + len(meta.SQL) + len(meta.TuneReason) + len(st.Err) + len(meta.Dot)
	for i := range events {
		n += 40 + len(events[i].Stmt)
	}
	// The framing header goes in front of the payload, so the record is
	// one write; the id and the header are filled in under the lock.
	rec := appendRun(make([]byte, recHeaderLen, n), info, meta.Dot, events)
	if plen := len(rec) - recHeaderLen; plen > maxRecordBytes {
		return 0, fmt.Errorf("tracestore: %s: run of %d bytes exceeds the %d-byte record limit", s.opts.Dir, plen, maxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	info.ID = s.nextID
	binary.LittleEndian.PutUint64(rec[recHeaderLen+1:], info.ID)
	fsio.PutRecordHeader(rec, rec[recHeaderLen:])
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+int64(len(rec)) > s.opts.MaxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
		active = s.segs[len(s.segs)-1]
	}
	if _, err := s.f.Write(rec); err != nil {
		return 0, fmt.Errorf("tracestore: %s: %w", s.opts.Dir, err)
	}
	s.runs = append(s.runs, runEntry{info: info, seg: active.id, off: active.size})
	s.nextID++
	active.size += int64(len(rec))
	s.mAppends.Inc()
	s.mAppendBytes.Add(int64(len(rec)))
	return info.ID, nil
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one.
func (s *Store) rotateLocked() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return s.openSegment(s.segs[len(s.segs)-1].id + 1)
}

// Begin starts a run recorded in batches: the returned RunWriter
// collects the events a profiler.Batcher delivers, and Finish hands them
// to Record. It is a thin shim for callers that produce a run's trace
// through a BatchSink.
func (s *Store) Begin(meta RunMeta) (*RunWriter, error) {
	if meta.Start.IsZero() {
		meta.Start = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	return &RunWriter{s: s, meta: meta}, nil
}

// RunWriter collects one run's events for Finish. It implements
// profiler.BatchSink.
type RunWriter struct {
	s    *Store
	meta RunMeta
	mu   sync.Mutex
	evs  []profiler.Event
}

// EmitBatch implements profiler.BatchSink by copying the batch.
func (w *RunWriter) EmitBatch(evs []profiler.Event) {
	w.mu.Lock()
	w.evs = append(w.evs, evs...)
	w.mu.Unlock()
}

// Finish records the run with the collected events.
func (w *RunWriter) Finish(st RunStats) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.s.Record(w.meta, w.evs, st)
	return err
}

// Runs lists all indexed runs in completion order.
func (s *Store) Runs() []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunInfo, len(s.runs))
	for i, e := range s.runs {
		out[i] = e.info
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

// TopN returns the n slowest successful runs, slowest first. n <= 0
// returns all of them.
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

// entry looks up a run's index entry.
func (s *Store) entry(id uint64) (runEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := slices.BinarySearchFunc(s.runs, id, func(e runEntry, id uint64) int { return cmp.Compare(e.info.ID, id) })
	if !ok {
		return runEntry{}, false
	}
	return s.runs[i], true
}

// Run returns one run's metadata from the index, reading no record.
func (s *Store) Run(id uint64) (RunInfo, bool) {
	e, ok := s.entry(id)
	return e.info, ok
}

// Load reads one run's record: its info, its plan dot text, and its
// full event stream — identical to what the profiler emitted while the
// query executed.
func (s *Store) Load(id uint64) (RunInfo, string, []profiler.Event, error) {
	e, ok := s.entry(id)
	if !ok {
		//stetho:ignore errfile the run is in no segment; the reply goes to remote clients, which must not see server paths
		return RunInfo{}, "", nil, fmt.Errorf("tracestore: unknown run %d", id)
	}
	f, err := os.Open(s.segPath(e.seg))
	if err != nil {
		return RunInfo{}, "", nil, fmt.Errorf("tracestore: run %d: %w", id, err)
	}
	defer f.Close()
	payload, err := fsio.ReadRecordAt(f, e.off, maxRecordBytes)
	if err != nil {
		return RunInfo{}, "", nil, fmt.Errorf("tracestore: run %d: %s: %w", id, f.Name(), err)
	}
	_, dot, evs, err := decodeRun(payload[1:], true)
	if err != nil {
		return RunInfo{}, "", nil, fmt.Errorf("tracestore: run %d: %w", id, err)
	}
	return e.info, dot, evs, nil
}

// Compact enforces the retention policy now: sealed segments are
// deleted oldest-first while the store exceeds MaxTotalBytes, and the
// runs they held drop from the index.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
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
	n := len(s.runs)
	s.runs = slices.DeleteFunc(s.runs, func(e runEntry) bool { return drop[e.seg] })
	s.droppedRuns += n - len(s.runs)
	return firstErr
}

// Stats snapshots the store's footprint and maintenance counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Segments:        len(s.segs),
		Runs:            len(s.runs),
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
// (fsync), and releases the writer lock. The store must not be used
// afterwards.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.closed = true
		if s.f != nil {
			if serr := s.f.Sync(); serr != nil {
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
