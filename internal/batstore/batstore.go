// Package batstore is the durable columnar BAT storage subsystem: a
// catalog persisted to disk as a manifest plus per-column segment
// files, so a database opens from data instead of regenerating it.
//
// On-disk layout of a dataset directory:
//
//	dir/
//	  MANIFEST                       one fsio-framed JSON record: format
//	                                 version, dataset metadata (sf, seed,
//	                                 ...), segment size, and every table's
//	                                 schema, row count, and column files
//	  LOCK                           writer-exclusion flock, held only
//	                                 while Persist writes
//	  <schema>.<table>.<column>.col  fsio-framed segment records
//
// The discipline mirrors internal/tracestore via the shared
// internal/fsio package: every record is length-prefixed and
// CRC-checksummed, writers take an exclusive flock on the directory,
// and opens are read-only (no lock, no mutation — any number of
// processes can serve from one dataset). Persist commits by writing the
// MANIFEST last, atomically (temp file + rename): a crashed Persist
// leaves either the old complete dataset or no manifest at all, never a
// half-dataset that opens.
//
// Reads are windowed and lazy: Open costs one manifest record; column
// data comes off disk on first bind, decoded segment-at-a-time through
// a reused window buffer, and only for the columns queries actually
// scan. A corrupt or torn segment surfaces as an error naming the
// segment file and index — never a silently wrong column.
package batstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stethoscope/internal/fsio"
	"stethoscope/internal/metrics"
	"stethoscope/internal/storage"
)

const (
	// FormatVersion is the on-disk format revision; Open rejects
	// datasets written by a newer code level.
	FormatVersion = 1
	// DefaultSegmentRows is the fixed segment size Persist uses unless
	// overridden: 64Ki rows per segment keeps the decode window small
	// while a 6M-row SF 1 lineitem column still fits in ~92 segments.
	DefaultSegmentRows = 1 << 16
	// manifestName is the dataset's commit point.
	manifestName = "MANIFEST"
	colSuffix    = ".col"
	// maxSegmentBytes bounds a framed segment record read back from
	// disk; anything larger is corruption, not an allocation request.
	maxSegmentBytes = 64 << 20
	// maxManifestBytes bounds the manifest record.
	maxManifestBytes = 16 << 20
)

// manifest is the persisted catalog description.
type manifest struct {
	Version     int               `json:"version"`
	SegmentRows int               `json:"segment_rows"`
	Meta        map[string]string `json:"meta,omitempty"`
	Tables      []tableManifest   `json:"tables"`
}

// tableManifest describes one persisted table.
type tableManifest struct {
	Schema  string           `json:"schema"`
	Name    string           `json:"name"`
	Rows    int              `json:"rows"`
	Columns []columnManifest `json:"columns"`
}

// columnManifest describes one persisted column file.
type columnManifest struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	File     string `json:"file"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
}

// colFileName is the column file naming scheme inside a dataset.
func colFileName(schema, table, column string) string {
	return schema + "." + table + "." + column + colSuffix
}

// Persist writes cat as a dataset at dir, creating the directory if
// missing and replacing any dataset already there. meta is free-form
// dataset metadata recorded in the manifest (the facade stores the
// generator's sf and seed). segmentRows fixes the segment size
// (DefaultSegmentRows when <= 0). The writer flock is held for the
// whole write; a concurrent Persist on the same directory fails
// instead of interleaving files.
func Persist(dir string, cat *storage.Catalog, meta map[string]string, segmentRows int) error {
	if segmentRows <= 0 {
		segmentRows = DefaultSegmentRows
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("batstore: %w", err)
	}
	lock, err := fsio.AcquireDirLock(dir)
	if err != nil {
		return fmt.Errorf("batstore: %w", err)
	}
	defer fsio.ReleaseLock(lock)

	man := manifest{Version: FormatVersion, SegmentRows: segmentRows, Meta: meta}
	var buf []byte
	for _, qual := range cat.TableNames() {
		schema, bare, ok := strings.Cut(qual, ".")
		if !ok {
			schema, bare = "sys", qual
		}
		t, ok := cat.Table(schema, bare)
		if !ok {
			return fmt.Errorf("batstore: %s: catalog names table %s but does not resolve it", dir, qual)
		}
		tm := tableManifest{Schema: schema, Name: bare, Rows: t.Rows()}
		for _, col := range t.Columns {
			b, err := t.ColumnData(col.Name)
			if err != nil {
				return fmt.Errorf("batstore: %w", err)
			}
			cm, err := writeColumn(dir, schema, bare, col, b, segmentRows, &buf)
			if err != nil {
				return err
			}
			tm.Columns = append(tm.Columns, cm)
		}
		man.Tables = append(man.Tables, tm)
	}
	return writeManifest(dir, man)
}

// writeColumn streams one BAT into its segment file: fixed-size
// segments, each an fsio-framed record whose payload is one encoded
// window. buf is the reused encode buffer.
func writeColumn(dir, schema, table string, col storage.Column, b *storage.BAT, segmentRows int, buf *[]byte) (columnManifest, error) {
	cm := columnManifest{Name: col.Name, Kind: col.Kind.String(), File: colFileName(schema, table, col.Name)}
	path := filepath.Join(dir, cm.File)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return cm, fmt.Errorf("batstore: %w", err)
	}
	w := bufio.NewWriterSize(f, 256<<10)
	rows := b.Len()
	for lo := 0; lo < rows; lo += segmentRows {
		hi := lo + segmentRows
		if hi > rows {
			hi = rows
		}
		*buf = encodeSegment((*buf)[:0], b, lo, hi)
		n, err := fsio.WriteRecord(w, *buf)
		if err != nil {
			f.Close()
			return cm, fmt.Errorf("batstore: %s: %w", path, err)
		}
		cm.Bytes += n
		cm.Segments++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return cm, fmt.Errorf("batstore: %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return cm, fmt.Errorf("batstore: %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return cm, fmt.Errorf("batstore: %s: %w", path, err)
	}
	return cm, nil
}

// writeManifest commits the dataset: the framed manifest record is
// written to a temp file, synced, and renamed over MANIFEST, so the
// commit point is atomic.
func writeManifest(dir string, man manifest) error {
	payload, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("batstore: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("batstore: %w", err)
	}
	if _, err := fsio.WriteRecord(f, payload); err != nil {
		f.Close()
		return fmt.Errorf("batstore: %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("batstore: %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("batstore: %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("batstore: %w", err)
	}
	return nil
}

// Store is a read-only handle on a persisted dataset: the manifest is
// resident, column data stays on disk until read. Any number of Stores
// (and processes) can open one dataset concurrently.
type Store struct {
	dir string
	man manifest

	// I/O counters, nil (no-op) until Instrument attaches a registry.
	segDecoded *metrics.Counter
	bytesRead  *metrics.Counter
}

// Instrument registers the store's I/O counters (stetho_batstore_*) in
// the registry. Call before serving reads; cursors opened earlier keep
// counting into their original (possibly nil) cells.
func (s *Store) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.segDecoded = reg.Counter("stetho_batstore_segments_decoded_total")
	s.bytesRead = reg.Counter("stetho_batstore_bytes_read_total")
}

// Open reads and verifies a dataset's manifest. No lock is taken and
// no column data is read — the cost is one framed record, independent
// of the dataset size.
func Open(dir string) (*Store, error) {
	path := filepath.Join(dir, manifestName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("batstore: %s is not a persisted dataset (no %s; generate one with tpchgen -persist or DB.Persist)", dir, manifestName)
		}
		return nil, fmt.Errorf("batstore: %w", err)
	}
	defer f.Close()
	payload, err := fsio.ReadRecord(bufio.NewReader(f), nil, maxManifestBytes)
	if err != nil {
		return nil, fmt.Errorf("batstore: %s: %v", path, err)
	}
	var man manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		return nil, fmt.Errorf("batstore: %s: %w", path, err)
	}
	if man.Version != FormatVersion {
		return nil, fmt.Errorf("batstore: %s: format version %d, this build reads %d", path, man.Version, FormatVersion)
	}
	if man.SegmentRows <= 0 {
		return nil, fmt.Errorf("batstore: %s: invalid segment size %d", path, man.SegmentRows)
	}
	for _, tm := range man.Tables {
		for _, cm := range tm.Columns {
			if _, ok := storage.ParseKind(cm.Kind); !ok {
				return nil, fmt.Errorf("batstore: %s: column %s.%s.%s has unknown kind %q", path, tm.Schema, tm.Name, cm.Name, cm.Kind)
			}
		}
	}
	return &Store{dir: dir, man: man}, nil
}

// Meta returns the dataset metadata recorded at Persist time.
func (s *Store) Meta() map[string]string {
	out := make(map[string]string, len(s.man.Meta))
	for k, v := range s.man.Meta {
		out[k] = v
	}
	return out
}

// TableInfo summarizes one persisted table.
type TableInfo struct {
	Schema  string
	Name    string
	Rows    int
	Columns int
	Bytes   int64 // on-disk footprint of the table's column files
}

// Tables lists the persisted tables in manifest order.
func (s *Store) Tables() []TableInfo {
	out := make([]TableInfo, 0, len(s.man.Tables))
	for _, tm := range s.man.Tables {
		ti := TableInfo{Schema: tm.Schema, Name: tm.Name, Rows: tm.Rows, Columns: len(tm.Columns)}
		for _, cm := range tm.Columns {
			ti.Bytes += cm.Bytes
		}
		out = append(out, ti)
	}
	return out
}

// Catalog builds a lazily-loaded storage.Catalog over the dataset:
// table schemas and row counts come from the manifest, column data
// materializes on first bind via ReadColumn. This is what the facade
// serves queries against after OpenPath.
func (s *Store) Catalog() (*storage.Catalog, error) {
	cat := storage.NewCatalog()
	for _, tm := range s.man.Tables {
		tm := tm
		cols := make([]storage.Column, len(tm.Columns))
		for i, cm := range tm.Columns {
			kind, _ := storage.ParseKind(cm.Kind)
			cols[i] = storage.Column{Name: cm.Name, Kind: kind}
		}
		load := func(column string) (*storage.BAT, error) {
			return s.ReadColumn(tm.Schema, tm.Name, column)
		}
		if err := cat.DefineLazy(tm.Schema, tm.Name, cols, tm.Rows, load); err != nil {
			return nil, fmt.Errorf("batstore: %w", err)
		}
	}
	return cat, nil
}

// findColumn resolves a column's manifest entries.
func (s *Store) findColumn(schema, table, column string) (tableManifest, columnManifest, error) {
	for _, tm := range s.man.Tables {
		if tm.Schema != schema || tm.Name != table {
			continue
		}
		for _, cm := range tm.Columns {
			if cm.Name == column {
				return tm, cm, nil
			}
		}
		return tm, columnManifest{}, fmt.Errorf("batstore: no column %s.%s.%s in dataset %s", schema, table, column, s.dir)
	}
	return tableManifest{}, columnManifest{}, fmt.Errorf("batstore: no table %s.%s in dataset %s", schema, table, s.dir)
}

// ReadColumn materializes one column: its segment file is read
// window-at-a-time (one framed segment per read, decode buffer reused)
// into a BAT preallocated at the manifest row count. Peak transient
// memory is one encoded segment, not the encoded column.
func (s *Store) ReadColumn(schema, table, column string) (*storage.BAT, error) {
	r, err := s.OpenColumn(schema, table, column)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	dst := storage.New(r.Kind(), r.Rows())
	for {
		if _, err := r.Next(dst); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// OpenColumn opens a windowed cursor over one column's segments, for
// callers that consume a column segment-at-a-time instead of whole.
func (s *Store) OpenColumn(schema, table, column string) (*ColumnReader, error) {
	tm, cm, err := s.findColumn(schema, table, column)
	if err != nil {
		return nil, err
	}
	kind, _ := storage.ParseKind(cm.Kind)
	path := filepath.Join(s.dir, cm.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("batstore: %w", err)
	}
	return &ColumnReader{
		path:     path,
		f:        f,
		br:       bufio.NewReaderSize(f, 256<<10),
		kind:     kind,
		segRows:  s.man.SegmentRows,
		segments: cm.Segments,
		rows:     tm.Rows,
		decoded:  s.segDecoded,
		bytes:    s.bytesRead,
	}, nil
}

// ColumnReader iterates one column's segments in file order. Each Next
// decodes exactly one segment into the caller's BAT; the encoded window
// buffer is reused across calls.
type ColumnReader struct {
	path     string
	f        *os.File
	br       *bufio.Reader
	buf      []byte
	kind     storage.Kind
	segRows  int
	segments int
	rows     int
	seg      int
	got      int

	// Store counters, copied at open; nil when the store is
	// uninstrumented.
	decoded *metrics.Counter
	bytes   *metrics.Counter
}

// Kind returns the column's tail kind, from the manifest.
func (r *ColumnReader) Kind() storage.Kind { return r.kind }

// Rows returns the column's total row count, from the manifest.
func (r *ColumnReader) Rows() int { return r.rows }

// Next reads and decodes the next segment, appending its rows onto dst
// (which must have the column's kind). It returns the segment's row
// count, or io.EOF after the last declared segment. Torn or corrupt
// segments error with the segment file and index named.
func (r *ColumnReader) Next(dst *storage.BAT) (int, error) {
	if r.seg >= r.segments {
		if r.got != r.rows {
			return 0, fmt.Errorf("batstore: %s: %d rows across %d segments, manifest declares %d", r.path, r.got, r.segments, r.rows)
		}
		if _, err := r.br.Peek(1); err != io.EOF {
			return 0, fmt.Errorf("batstore: %s: trailing data after segment %d", r.path, r.segments)
		}
		return 0, io.EOF
	}
	payload, err := fsio.ReadRecord(r.br, r.buf, maxSegmentBytes)
	switch {
	case err == io.EOF, err == io.ErrUnexpectedEOF:
		return 0, fmt.Errorf("batstore: %s: segment %d of %d is torn or missing (file truncated)", r.path, r.seg, r.segments)
	case err != nil:
		return 0, fmt.Errorf("batstore: %s: segment %d: %v", r.path, r.seg, err)
	}
	r.buf = payload
	r.decoded.Inc()
	r.bytes.Add(int64(len(payload)))
	n, err := decodeSegment(payload, dst, r.segRows)
	if err != nil {
		return 0, fmt.Errorf("batstore: %s: segment %d: %v", r.path, r.seg, err)
	}
	r.seg++
	r.got += n
	return n, nil
}

// Close releases the segment file.
func (r *ColumnReader) Close() error { return r.f.Close() }
