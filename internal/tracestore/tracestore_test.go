package tracestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stethoscope/internal/fsio"
	"stethoscope/internal/metrics"
	"stethoscope/internal/profiler"
)

// synthEvents builds a deterministic start/done event stream of n
// instruction pairs with the given per-instruction duration.
func synthEvents(pairs int, durUs int64) []profiler.Event {
	evs := make([]profiler.Event, 0, 2*pairs)
	clk := int64(0)
	for pc := 0; pc < pairs; pc++ {
		stmt := fmt.Sprintf("X_%d := algebra.thetaselect(X_1, %d);", pc, pc)
		evs = append(evs, profiler.Event{Seq: int64(2 * pc), State: profiler.StateStart, PC: pc, ClkUs: clk, Stmt: stmt})
		clk += durUs
		evs = append(evs, profiler.Event{
			Seq: int64(2*pc + 1), State: profiler.StateDone, PC: pc, Thread: pc % 4,
			ClkUs: clk, DurUs: durUs, RSSKB: 64, Reads: 100, Writes: 10, Stmt: stmt,
		})
	}
	return evs
}

// record writes one complete run and returns its id.
func record(t testing.TB, s *Store, sql string, pairs int, durUs int64) uint64 {
	t.Helper()
	id, err := s.Record(RunMeta{SQL: sql, Dot: "digraph{}", Partitions: 1, Workers: 1, Instructions: pairs},
		synthEvents(pairs, durUs), RunStats{ElapsedUs: int64(pairs) * durUs, Rows: pairs})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	return id
}

func openStore(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	opts.Logf = t.Logf
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestRecordCutsAppendBatches: Record stores a run as one begin record,
// its events in records of DefaultAppendBatch, and one end record, and
// the run reads back whole.
func TestRecordCutsAppendBatches(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	want := synthEvents(DefaultAppendBatch+44, 10) // 600 events: 256 + 256 + 88
	id, err := s.Record(RunMeta{SQL: "select big", Instructions: len(want) / 2}, want,
		RunStats{ElapsedUs: 6000, Err: "engine: boom"})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("stetho_tracestore_appends_total").Load(); got != 5 {
		t.Errorf("Record appended %d records, want 5 (begin, 3 event batches, end)", got)
	}
	info, ok := s.Run(id)
	if !ok || !info.Complete || info.Events != len(want) || info.Err != "engine: boom" {
		t.Fatalf("info = %+v", info)
	}
	evs, err := s.Events(id)
	if err != nil || !reflect.DeepEqual(evs, want) {
		t.Fatalf("Events = %d events, %v; want the %d recorded", len(evs), err, len(want))
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	want := synthEvents(7, 100)
	w, err := s.Begin(RunMeta{SQL: "select 1", Dot: "digraph{n0}", Partitions: 4, Workers: 2, Instructions: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Split the stream over several records, as the batched path would.
	w.EmitBatch(want[:5])
	w.EmitBatch(want[5:])
	if err := w.Finish(RunStats{ElapsedUs: 700, Rows: 3, CacheHit: true}); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, stage string) {
		t.Helper()
		info, ok := s.Run(w.ID())
		if !ok {
			t.Fatalf("%s: run missing", stage)
		}
		if info.SQL != "select 1" || info.Partitions != 4 || info.Workers != 2 ||
			info.Instructions != 7 || info.Events != len(want) || !info.Complete ||
			info.ElapsedUs != 700 || info.Rows != 3 || !info.CacheHit || info.Err != "" {
			t.Fatalf("%s: info = %+v", stage, info)
		}
		evs, err := s.Events(w.ID())
		if err != nil {
			t.Fatalf("%s: Events: %v", stage, err)
		}
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("%s: events diverged from what was appended", stage)
		}
		dot, err := s.Dot(w.ID())
		if err != nil || dot != "digraph{n0}" {
			t.Fatalf("%s: Dot = %q, %v", stage, dot, err)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Index rebuild: reopen and re-verify everything from the segments.
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	check(s2, "reopened")
	// New run ids continue after the recovered ones.
	id2 := record(t, s2, "select 2", 3, 10)
	if id2 <= w.ID() {
		t.Fatalf("id after reopen = %d, want > %d", id2, w.ID())
	}
}

func TestSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxSegmentBytes: 2048})
	var ids []uint64
	for i := 0; i < 8; i++ {
		ids = append(ids, record(t, s, fmt.Sprintf("select %d", i), 10, 50))
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("segments = %d, want >= 2 after rollover", st.Segments)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.tlog"))
	if len(names) != st.Segments {
		t.Fatalf("on-disk segments = %d, stats say %d", len(names), st.Segments)
	}
	// Every run stays readable across the segment boundary.
	for _, id := range ids {
		evs, err := s.Events(id)
		if err != nil {
			t.Fatalf("Events(%d): %v", id, err)
		}
		if len(evs) != 20 {
			t.Fatalf("Events(%d) = %d events, want 20", id, len(evs))
		}
	}
	s.Close()
	// And after an index rebuild.
	s2 := openStore(t, dir, Options{MaxSegmentBytes: 2048})
	defer s2.Close()
	if got := len(s2.Runs()); got != len(ids) {
		t.Fatalf("reopened runs = %d, want %d", got, len(ids))
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	id1 := record(t, s, "select a", 5, 10)
	id2 := record(t, s, "select b", 5, 10)
	s.Close()

	// Simulate a crash mid-append: a header promising more payload than
	// the file holds.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.tlog"))
	if len(names) != 1 {
		t.Fatalf("segments = %d, want 1", len(names))
	}
	f, err := os.OpenFile(names[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r', 't'}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logged []string
	opts := Options{Dir: dir, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}}
	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(torn))
	}
	if st.RecoveredEvents != 20 {
		t.Fatalf("RecoveredEvents = %d, want 20", st.RecoveredEvents)
	}
	joined := strings.Join(logged, "\n")
	if !strings.Contains(joined, "recovered 20 events") {
		t.Fatalf("recovery log missing event count:\n%s", joined)
	}
	// Both intact runs survived whole.
	for _, id := range []uint64{id1, id2} {
		evs, err := s2.Events(id)
		if err != nil || len(evs) != 10 {
			t.Fatalf("Events(%d) = %d, %v", id, len(evs), err)
		}
	}
	// The store accepts appends after truncation, and they survive
	// another reopen (the torn bytes are really gone from disk).
	id3 := record(t, s2, "select c", 4, 10)
	s2.Close()
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	if evs, err := s3.Events(id3); err != nil || len(evs) != 8 {
		t.Fatalf("post-recovery run: %d events, %v", len(evs), err)
	}
	if s3.Stats().TruncatedBytes != 0 {
		t.Fatal("second reopen still reports a torn tail")
	}
}

func TestTornTailChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	record(t, s, "select a", 5, 10)
	record(t, s, "select b", 5, 10)
	s.Close()
	// Flip one byte inside the LAST record's payload: crc mismatch.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.tlog"))
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	// The corrupted record was the second run's end record; the run
	// survives as incomplete, everything before it intact.
	runs := s2.Runs()
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	if !runs[0].Complete || runs[0].Events != 10 {
		t.Fatalf("first run damaged: %+v", runs[0])
	}
	if runs[1].Complete {
		t.Fatalf("second run should have lost its end record: %+v", runs[1])
	}
	if s2.Stats().TruncatedBytes == 0 {
		t.Fatal("no truncation reported for checksum mismatch")
	}
}

func TestRetentionBySize(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxSegmentBytes: 2048, MaxTotalBytes: 5 * 1024})
	defer s.Close()
	for i := 0; i < 24; i++ {
		record(t, s, fmt.Sprintf("select %d", i), 10, 50)
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Bytes > 5*1024 {
		t.Fatalf("store still %d bytes after compaction, budget 5120", after.Bytes)
	}
	if after.DroppedSegments == 0 || after.DroppedRuns == 0 {
		t.Fatalf("nothing dropped: before=%+v after=%+v", before, after)
	}
	// The newest runs survive, the oldest are gone.
	runs := s.Runs()
	if len(runs) == 0 {
		t.Fatal("retention dropped everything")
	}
	if runs[len(runs)-1].SQL != "select 23" {
		t.Fatalf("newest run lost; tail is %q", runs[len(runs)-1].SQL)
	}
	if runs[0].SQL == "select 0" {
		t.Fatal("oldest run survived a size purge")
	}
	// Dropped runs are truly unreadable, survivors readable.
	if _, err := s.Events(1); err == nil {
		t.Fatal("dropped run still readable")
	}
	if _, err := s.Events(runs[0].ID); err != nil {
		t.Fatalf("surviving run unreadable: %v", err)
	}
}

// TestTopN: the slowest completed runs rank first; an incomplete run
// never ranks.
func TestTopN(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	slow := record(t, s, "select slow", 10, 1000)
	fast := record(t, s, "select fast", 10, 10)
	mid := record(t, s, "select mid", 10, 100)
	w, _ := s.Begin(RunMeta{SQL: "select crash", Instructions: 1})
	w.EmitBatch(synthEvents(1, 5))

	top := s.TopN(2)
	if len(top) != 2 || top[0].ID != slow || top[1].ID != mid {
		t.Fatalf("TopN(2) = %+v", top)
	}
	if all := s.TopN(0); len(all) != 3 || all[2].ID != fast {
		t.Fatalf("TopN(0) = %+v", all)
	}
}

// TestRecent: runs list newest first, incomplete ones included, and n
// caps the listing.
func TestRecent(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	first := record(t, s, "select 1", 2, 10)
	second := record(t, s, "select 2", 2, 10)
	w, _ := s.Begin(RunMeta{SQL: "select running", Instructions: 1})
	if all := s.Recent(0); len(all) != 3 || all[0].ID != w.ID() || all[1].ID != second || all[2].ID != first {
		t.Fatalf("Recent(0) = %+v", all)
	}
	if two := s.Recent(2); len(two) != 2 || two[0].ID != w.ID() || two[1].ID != second {
		t.Fatalf("Recent(2) = %+v", two)
	}
}

// TestConcurrentAppendWhileQuery is the append-while-query race test:
// writers record runs while readers aggregate and a compactor enforces
// retention, all concurrently. Run under -race in CI.
func TestConcurrentAppendWhileQuery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxSegmentBytes: 8 << 10, MaxTotalBytes: 256 << 10})
	defer s.Close()
	const writers, readers, runsEach = 4, 3, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				w, err := s.Begin(RunMeta{SQL: fmt.Sprintf("select w%d_%d", wi, i), Instructions: 6})
				if err != nil {
					errs <- err
					return
				}
				evs := synthEvents(6, int64(10+i))
				w.EmitBatch(evs[:7])
				w.EmitBatch(evs[7:])
				if err := w.Finish(RunStats{ElapsedUs: int64(60 * (10 + i))}); err != nil {
					errs <- err
					return
				}
			}
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for _, r := range s.TopN(5) {
					evs, err := s.Events(r.ID)
					if err != nil {
						// The run may have been retired by the concurrent
						// compactor between listing and reading — that is
						// the documented race outcome, not corruption.
						continue
					}
					if len(evs) != r.Events {
						errs <- fmt.Errorf("run %d: read %d events, index says %d", r.ID, len(evs), r.Events)
						return
					}
				}
				for _, r := range s.Recent(5) {
					// A run retired meanwhile fails to read, as above.
					_, _ = s.Dot(r.ID)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.Compact(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAppendThroughput pins the acceptance floor: the batched append
// path sustains at least 100k events/sec (typical is far higher; the
// bound holds comfortably even under the race detector).
func TestAppendThroughput(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	w, err := s.Begin(RunMeta{SQL: "bench", Instructions: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := synthEvents(128, 10) // 256 events per record
	const total = 200_000
	start := time.Now()
	n := 0
	for n < total {
		w.EmitBatch(batch)
		n += len(batch)
	}
	if err := w.Finish(RunStats{}); err != nil {
		t.Fatal(err)
	}
	rate := float64(n) / time.Since(start).Seconds()
	if rate < 100_000 {
		t.Fatalf("batched append path sustained %.0f events/sec, want >= 100000", rate)
	}
	t.Logf("batched append: %.0f events/sec", rate)
}

func TestConcurrentRunsInterleave(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	// Two runs appending turn by turn land interleaved in one segment
	// and still read back separated.
	w1, _ := s.Begin(RunMeta{SQL: "a", Instructions: 2})
	w2, _ := s.Begin(RunMeta{SQL: "b", Instructions: 2})
	e1 := synthEvents(2, 10)
	e2 := synthEvents(2, 20)
	w1.EmitBatch(e1[:2])
	w2.EmitBatch(e2[:2])
	w1.EmitBatch(e1[2:])
	w2.EmitBatch(e2[2:])
	if err := w2.Finish(RunStats{ElapsedUs: 40}); err != nil {
		t.Fatal(err)
	}
	if err := w1.Finish(RunStats{ElapsedUs: 20}); err != nil {
		t.Fatal(err)
	}
	got1, err := s.Events(w1.ID())
	if err != nil || !reflect.DeepEqual(got1, e1) {
		t.Fatalf("run 1 events diverged: %v", err)
	}
	got2, err := s.Events(w2.ID())
	if err != nil || !reflect.DeepEqual(got2, e2) {
		t.Fatalf("run 2 events diverged: %v", err)
	}
}

func TestWriterLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, Options{})
	if _, err := Open(Options{Dir: dir, Logf: t.Logf}); err == nil {
		t.Fatal("second writable Open on a locked store succeeded")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open error = %v, want a lock error", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock releases with the first writer.
	s2 := openStore(t, dir, Options{})
	s2.Close()
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	w := openStore(t, dir, Options{})
	id := record(t, w, "select live", 5, 10)

	// A read-only open succeeds while the writer holds the lock, sees
	// the flushed runs, and refuses writes.
	ro := openStore(t, dir, Options{ReadOnly: true})
	if _, err := ro.Events(id); err != nil {
		t.Fatalf("read-only Events: %v", err)
	}
	if got := len(ro.Runs()); got != 1 {
		t.Fatalf("read-only sees %d runs, want 1", got)
	}
	if _, err := ro.Begin(RunMeta{SQL: "nope"}); err == nil {
		t.Fatal("Begin succeeded on a read-only store")
	}
	if err := ro.Compact(); err == nil {
		t.Fatal("Compact succeeded on a read-only store")
	}
	ro.Close()
	w.Close()

	// A torn tail is skipped in memory, never truncated on disk.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.tlog"))
	torn := []byte{200, 0, 0, 0, 1, 2, 3, 4, 'x'}
	f, err := os.OpenFile(names[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()
	sizeBefore := fileSize(t, names[0])
	ro2 := openStore(t, dir, Options{ReadOnly: true})
	if got := ro2.Stats().TruncatedBytes; got != int64(len(torn)) {
		t.Fatalf("read-only torn tail = %d bytes, want %d", got, len(torn))
	}
	if evs, err := ro2.Events(id); err != nil || len(evs) != 10 {
		t.Fatalf("read-only Events after torn tail: %d, %v", len(evs), err)
	}
	ro2.Close()
	if got := fileSize(t, names[0]); got != sizeBefore {
		t.Fatalf("read-only open modified the segment: %d -> %d bytes", sizeBefore, got)
	}
	// A writable open then truncates for real.
	w2 := openStore(t, dir, Options{})
	defer w2.Close()
	if got := fileSize(t, names[0]); got != sizeBefore-int64(len(torn)) {
		t.Fatalf("writable open did not truncate: %d bytes", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestBeginRecordAutoTuneTrailerRoundTrip(t *testing.T) {
	m := RunMeta{
		SQL: "select 1", Dot: "digraph{}", Start: time.Unix(0, 12345),
		Partitions: 8, Workers: 4, Instructions: 17,
		AutoTuned: true, TuneReason: "auto: rows=60175 procs=4 -> 8 partitions",
	}
	id, got, err := decodeBegin(encodeBegin(42, m)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Errorf("id = %d", id)
	}
	if got.AutoTuned != m.AutoTuned || got.TuneReason != m.TuneReason {
		t.Errorf("auto-tune trailer lost: %+v", got)
	}
	if got.Partitions != 8 || got.Workers != 4 || got.SQL != m.SQL || got.Dot != m.Dot {
		t.Errorf("base fields corrupted: %+v", got)
	}
}

// encodeBeginLegacy renders a begin payload in the pre-trailer format,
// byte for byte what old stores contain.
func encodeBeginLegacy(id uint64, m RunMeta) []byte {
	b := []byte{1 /* recBegin */}
	b = binary.AppendUvarint(b, id)
	b = binary.AppendVarint(b, m.Start.UnixNano())
	b = binary.AppendUvarint(b, uint64(m.Partitions))
	b = binary.AppendUvarint(b, uint64(m.Workers))
	b = binary.AppendUvarint(b, uint64(m.Instructions))
	b = appendString(b, m.SQL)
	b = appendString(b, m.Dot)
	return b
}

func TestDecodeBeginToleratesLegacyRecords(t *testing.T) {
	m := RunMeta{SQL: "select 2", Dot: "digraph{}", Start: time.Unix(0, 99), Partitions: 2, Workers: 2, Instructions: 5}
	id, got, err := decodeBegin(encodeBeginLegacy(7, m)[1:])
	if err != nil {
		t.Fatalf("legacy begin record failed to decode: %v", err)
	}
	if id != 7 || got.SQL != m.SQL || got.Partitions != 2 {
		t.Errorf("legacy fields corrupted: id=%d %+v", id, got)
	}
	if got.AutoTuned || got.TuneReason != "" {
		t.Errorf("legacy record decoded with auto-tune set: %+v", got)
	}
}

// TestOpenSkipsOverlongStringRecord: a begin record with a valid
// checksum whose SQL length is 2^63-1 used to overflow the payload
// reader's bounds check and panic Open. It must take the
// undecodable-record path instead, leaving the other runs readable.
func TestOpenSkipsOverlongStringRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	id := record(t, s, "select kept", 3, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := []byte{recBegin}
	bad = binary.AppendUvarint(bad, id+1)
	bad = binary.AppendVarint(bad, 0)
	for range 3 { // partitions, workers, instructions
		bad = binary.AppendUvarint(bad, 1)
	}
	bad = binary.AppendUvarint(bad, 1<<63-1) // the SQL text's length
	bad = append(bad, "select"...)
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.tlog"))
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsio.WriteRecord(f, bad); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logs []string
	s2, err := Open(Options{Dir: dir, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !strings.Contains(strings.Join(logs, "\n"), "skipping undecodable begin record") {
		t.Errorf("the overlong record was not reported as undecodable; log:\n%s", strings.Join(logs, "\n"))
	}
	if runs := s2.Runs(); len(runs) != 1 || runs[0].ID != id {
		t.Fatalf("runs after reopen = %+v, want only run %d", runs, id)
	}
}
