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

// load reads a run's record, failing the test on error.
func load(t testing.TB, s *Store, id uint64) (RunInfo, string, []profiler.Event) {
	t.Helper()
	info, dot, evs, err := s.Load(id)
	if err != nil {
		t.Fatalf("Load(%d): %v", id, err)
	}
	return info, dot, evs
}

// TestRecordIsOneAppend: Record stores a run, however many events it
// has, as one appended record, and the run reads back whole.
func TestRecordIsOneAppend(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	want := synthEvents(300, 10)
	id, err := s.Record(RunMeta{SQL: "select big", Instructions: len(want) / 2}, want,
		RunStats{ElapsedUs: 6000, Err: "engine: boom"})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("stetho_tracestore_appends_total").Load(); got != 1 {
		t.Errorf("Record appended %d records, want 1", got)
	}
	if got, want := reg.Counter("stetho_tracestore_append_bytes_total").Load(), s.Stats().Bytes; got != want {
		t.Errorf("appended %d bytes, the store holds %d", got, want)
	}
	info, ok := s.Run(id)
	if !ok || info.OK() || info.Events != len(want) || info.Err != "engine: boom" {
		t.Fatalf("info = %+v", info)
	}
	if _, _, evs := load(t, s, id); !reflect.DeepEqual(evs, want) {
		t.Fatalf("Load = %d events; want the %d recorded", len(evs), len(want))
	}
}

// TestRoundTrip: every field of a run — the auto-tune fields included —
// survives the live index, Load, and an index rebuild, whether the run
// was written by Record or through the Begin shim.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	want := synthEvents(7, 100)
	meta := RunMeta{SQL: "select 1", Dot: "digraph{n0}", Start: time.Unix(0, 12345), Partitions: 8, Workers: 4, Instructions: 7,
		AutoTuned: true, TuneReason: "auto: rows=60175 procs=4 -> 8 partitions"}
	stats := RunStats{ElapsedUs: 700, Rows: 3, CacheHit: true}
	id, err := s.Record(meta, want, stats)
	if err != nil {
		t.Fatal(err)
	}
	// The shim path: batches collected by a RunWriter, recorded by Finish.
	w, err := s.Begin(meta)
	if err != nil {
		t.Fatal(err)
	}
	w.EmitBatch(want[:5])
	w.EmitBatch(want[5:])
	if err := w.Finish(stats); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, stage string) {
		t.Helper()
		for _, id := range []uint64{id, id + 1} {
			info, ok := s.Run(id)
			if !ok {
				t.Fatalf("%s: run %d missing", stage, id)
			}
			if info.ID != id || info.SQL != "select 1" || !info.Start.Equal(meta.Start) ||
				info.Partitions != 8 || info.Workers != 4 || info.Instructions != 7 ||
				!info.AutoTuned || info.TuneReason != meta.TuneReason || info.Events != len(want) ||
				info.ElapsedUs != 700 || info.Rows != 3 || !info.CacheHit || !info.OK() {
				t.Fatalf("%s: info = %+v", stage, info)
			}
			loaded, dot, evs := load(t, s, id)
			if loaded != info {
				t.Fatalf("%s: Load info = %+v, Run info = %+v", stage, loaded, info)
			}
			if !reflect.DeepEqual(evs, want) {
				t.Fatalf("%s: events diverged from what was recorded", stage)
			}
			if dot != "digraph{n0}" {
				t.Fatalf("%s: dot = %q", stage, dot)
			}
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
	if id3 := record(t, s2, "select 2", 3, 10); id3 != id+2 {
		t.Fatalf("id after reopen = %d, want %d", id3, id+2)
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
		if _, _, evs := load(t, s, id); len(evs) != 20 {
			t.Fatalf("Load(%d) = %d events, want 20", id, len(evs))
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
		if _, _, evs := load(t, s2, id); len(evs) != 10 {
			t.Fatalf("Load(%d) = %d events", id, len(evs))
		}
	}
	// The store accepts appends after truncation, and they survive
	// another reopen (the torn bytes are really gone from disk).
	id3 := record(t, s2, "select c", 4, 10)
	s2.Close()
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	if _, _, evs := load(t, s3, id3); len(evs) != 8 {
		t.Fatalf("post-recovery run: %d events", len(evs))
	}
	if s3.Stats().TruncatedBytes != 0 {
		t.Fatal("second reopen still reports a torn tail")
	}
}

func TestTornTailChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	id1 := record(t, s, "select a", 5, 10)
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
	// The corrupted record was the second run's: it is dropped whole,
	// and the first run is intact.
	runs := s2.Runs()
	if len(runs) != 1 || runs[0].ID != id1 || runs[0].Events != 10 {
		t.Fatalf("runs = %+v, want only run %d with 10 events", runs, id1)
	}
	if info, _, evs := load(t, s2, id1); !reflect.DeepEqual(evs, synthEvents(5, 10)) || info.SQL != "select a" {
		t.Fatalf("first run damaged: %+v, %d events", info, len(evs))
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
	if _, _, _, err := s.Load(1); err == nil {
		t.Fatal("dropped run still readable")
	}
	load(t, s, runs[0].ID)
}

// TestTopN: the slowest successful runs rank first; a failed run never
// ranks, however slow.
func TestTopN(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	slow := record(t, s, "select slow", 10, 1000)
	fast := record(t, s, "select fast", 10, 10)
	mid := record(t, s, "select mid", 10, 100)
	if _, err := s.Record(RunMeta{SQL: "select crash", Instructions: 1}, synthEvents(1, 5),
		RunStats{ElapsedUs: 1 << 40, Err: "engine: boom"}); err != nil {
		t.Fatal(err)
	}

	top := s.TopN(2)
	if len(top) != 2 || top[0].ID != slow || top[1].ID != mid {
		t.Fatalf("TopN(2) = %+v", top)
	}
	if all := s.TopN(0); len(all) != 3 || all[2].ID != fast {
		t.Fatalf("TopN(0) = %+v", all)
	}
}

// TestRecent: runs list newest first, failed ones included, and n caps
// the listing.
func TestRecent(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	first := record(t, s, "select 1", 2, 10)
	second := record(t, s, "select 2", 2, 10)
	failed, err := s.Record(RunMeta{SQL: "select failed", Instructions: 1}, nil, RunStats{Err: "context canceled"})
	if err != nil {
		t.Fatal(err)
	}
	if all := s.Recent(0); len(all) != 3 || all[0].ID != failed || all[1].ID != second || all[2].ID != first {
		t.Fatalf("Recent(0) = %+v", all)
	}
	if two := s.Recent(2); len(two) != 2 || two[0].ID != failed || two[1].ID != second {
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
				if _, err := s.Record(RunMeta{SQL: fmt.Sprintf("select w%d_%d", wi, i), Instructions: 6},
					synthEvents(6, int64(10+i)), RunStats{ElapsedUs: int64(60 * (10 + i))}); err != nil {
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
					_, _, evs, err := s.Load(r.ID)
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
					_, _, _, _ = s.Load(r.ID)
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

// TestAppendThroughput pins the acceptance floor: the batched path —
// RunWriter collecting 256-event batches, Finish recording them —
// sustains at least 100k events/sec (typical is far higher; the bound
// holds comfortably even under the race detector).
func TestAppendThroughput(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	w, err := s.Begin(RunMeta{SQL: "bench", Instructions: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := synthEvents(128, 10) // 256 events per batch
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

// TestConcurrentRunsInterleave: runs recorded concurrently land as
// whole records in one segment, each reading back exactly as recorded,
// with ids 1..n.
func TestConcurrentRunsInterleave(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	const runs = 16
	var wg sync.WaitGroup
	ids := make([]uint64, runs)
	errs := make([]error, runs)
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i], errs[i] = s.Record(RunMeta{SQL: fmt.Sprintf("select %d", i), Instructions: i + 1},
				synthEvents(i+1, int64(10*(i+1))), RunStats{ElapsedUs: int64(i)})
		}()
	}
	wg.Wait()
	check := func(s *Store, stage string) {
		t.Helper()
		seen := map[uint64]bool{}
		for i := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			info, _, evs := load(t, s, ids[i])
			if info.SQL != fmt.Sprintf("select %d", i) || !reflect.DeepEqual(evs, synthEvents(i+1, int64(10*(i+1)))) {
				t.Fatalf("%s: run %d (%q) diverged from what was recorded", stage, ids[i], info.SQL)
			}
			seen[ids[i]] = true
		}
		for id := uint64(1); id <= runs; id++ {
			if !seen[id] {
				t.Fatalf("%s: ids %v skip %d", stage, ids, id)
			}
		}
	}
	check(s, "live")
	s.Close()
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	check(s2, "reopened")
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
	load(t, ro, id)
	if got := len(ro.Runs()); got != 1 {
		t.Fatalf("read-only sees %d runs, want 1", got)
	}
	if _, err := ro.Begin(RunMeta{SQL: "nope"}); err == nil {
		t.Fatal("Begin succeeded on a read-only store")
	}
	if _, err := ro.Record(RunMeta{SQL: "nope"}, nil, RunStats{}); err == nil {
		t.Fatal("Record succeeded on a read-only store")
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
	if _, _, evs := load(t, ro2, id); len(evs) != 10 {
		t.Fatalf("read-only Load after torn tail: %d events", len(evs))
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

// TestBeginRecordAutoTuneTrailerRoundTrip: the auto-tune fields, once a
// trailer of the begin record, are now part of the run record's head;
// they survive an encode and a head-only decode, and a run that was not
// auto-tuned decodes with them unset.
func TestBeginRecordAutoTuneTrailerRoundTrip(t *testing.T) {
	m := RunInfo{
		ID: 42, SQL: "select 1", Start: time.Unix(0, 12345),
		Partitions: 8, Workers: 4, Instructions: 17,
		AutoTuned: true, TuneReason: "auto: rows=60175 procs=4 -> 8 partitions",
	}
	payload := appendRun(nil, m, "digraph{}", nil)
	if payload[0] != recRun {
		t.Fatalf("type byte = %d, want %d", payload[0], recRun)
	}
	got, _, _, err := decodeRun(payload[1:], false)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 {
		t.Errorf("id = %d", got.ID)
	}
	if got.AutoTuned != m.AutoTuned || got.TuneReason != m.TuneReason {
		t.Errorf("auto-tune fields lost: %+v", got)
	}
	if got.Partitions != 8 || got.Workers != 4 || got.Instructions != 17 || got.SQL != m.SQL || !got.Start.Equal(m.Start) {
		t.Errorf("base fields corrupted: %+v", got)
	}
	plain := RunInfo{ID: 7, SQL: "select 2", Start: time.Unix(0, 99), Partitions: 2, Workers: 2, Instructions: 5}
	got, _, _, err = decodeRun(appendRun(nil, plain, "digraph{}", nil)[1:], false)
	if err != nil {
		t.Fatal(err)
	}
	if got.AutoTuned || got.TuneReason != "" {
		t.Errorf("run recorded without auto-tune decoded with it set: %+v", got)
	}
}

// TestOpenSkipsOverlongStringRecord: a run record with a valid checksum
// whose SQL length is 2^63-1 used to overflow the payload reader's
// bounds check and panic Open. It must take the undecodable-record path
// instead, leaving the other runs readable.
func TestOpenSkipsOverlongStringRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	id := record(t, s, "select kept", 3, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := []byte{recRun}
	bad = binary.LittleEndian.AppendUint64(bad, id+1)
	bad = binary.AppendVarint(bad, 0)
	for range 3 { // partitions, workers, instructions
		bad = binary.AppendUvarint(bad, 1)
	}
	bad = append(bad, 0)                     // flags
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
	if !strings.Contains(strings.Join(logs, "\n"), "skipping undecodable run record") {
		t.Errorf("the overlong record was not reported as undecodable; log:\n%s", strings.Join(logs, "\n"))
	}
	if runs := s2.Runs(); len(runs) != 1 || runs[0].ID != id {
		t.Fatalf("runs after reopen = %+v, want only run %d", runs, id)
	}
}

// TestRecordRefusesOversizedRun: a run whose record would exceed
// maxRecordBytes — Open would take it for a torn tail — is refused with
// an error naming the store, and nothing is written.
func TestRecordRefusesOversizedRun(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	id := record(t, s, "select kept", 2, 10)
	before := s.Stats()
	huge := []profiler.Event{{State: profiler.StateDone, Stmt: strings.Repeat("x", maxRecordBytes)}}
	_, err := s.Record(RunMeta{SQL: "select huge"}, huge, RunStats{})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Record of a %d-byte statement = %v, want an error naming %s", maxRecordBytes, err, dir)
	}
	if after := s.Stats(); after != before {
		t.Fatalf("refused run changed the store: %+v -> %+v", before, after)
	}
	if next := record(t, s, "select next", 1, 10); next != id+1 {
		t.Fatalf("id after the refused run = %d, want %d", next, id+1)
	}
}

// TestOpenSkipsParentFormat: a segment written by the older
// multi-record format (begin, events and end records; the fixture was
// generated once by that writer and is never regenerated) opens with its
// records skipped — one log line for the segment — and its bytes kept.
// New runs append after them and read back.
func TestOpenSkipsParentFormat(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-format", "seg-00000001.tlog"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000001.tlog")
	if err := os.WriteFile(seg, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, readOnly := range []bool{true, false} {
		var logs []string
		s, err := Open(Options{Dir: dir, ReadOnly: readOnly, Logf: func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(logs) != 1 || !strings.Contains(logs[0], "skipped 6 records of the older multi-record format") {
			t.Errorf("read-only=%t: log = %q, want one line skipping 6 records", readOnly, logs)
		}
		if st := s.Stats(); st.Runs != 0 || st.TruncatedBytes != 0 || st.Bytes != int64(len(fixture)) {
			t.Errorf("read-only=%t: stats = %+v, want no runs and nothing truncated", readOnly, st)
		}
		s.Close()
		if got := fileSize(t, seg); got != int64(len(fixture)) {
			t.Fatalf("read-only=%t: open changed the segment: %d -> %d bytes", readOnly, len(fixture), got)
		}
	}
	s := openStore(t, dir, Options{})
	id := record(t, s, "select new", 3, 10)
	s.Close()
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if runs := s2.Runs(); len(runs) != 1 || runs[0].ID != id {
		t.Fatalf("runs = %+v, want only run %d", runs, id)
	}
	if _, _, evs := load(t, s2, id); len(evs) != 6 {
		t.Fatalf("new run read back %d events, want 6", len(evs))
	}
}
