package fsio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte{1},
		[]byte("hello record"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var total int64
	for _, p := range payloads {
		n, err := WriteRecord(&buf, p)
		if err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
		if n != RecordHeaderLen+int64(len(p)) {
			t.Errorf("WriteRecord returned %d bytes, want %d", n, RecordHeaderLen+len(p))
		}
		total += n
	}
	if int64(buf.Len()) != total {
		t.Fatalf("buffer holds %d bytes, want %d", buf.Len(), total)
	}
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	for i, p := range payloads {
		got, err := ReadRecord(r, scratch, 1<<20)
		if err != nil {
			t.Fatalf("ReadRecord #%d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("record #%d: got %d bytes, want %d", i, len(got), len(p))
		}
		scratch = got
	}
	if _, err := ReadRecord(r, scratch, 1<<20); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
}

func TestReadRecordTornTail(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRecord(&buf, []byte("whole record")); err != nil {
		t.Fatal(err)
	}
	whole := append([]byte(nil), buf.Bytes()...)
	for _, cut := range []int{1, RecordHeaderLen - 1, RecordHeaderLen + 3} {
		r := bytes.NewReader(whole[:cut])
		if _, err := ReadRecord(r, nil, 1<<20); err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadRecordCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRecord(&buf, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: checksum mismatch.
	b := append([]byte(nil), buf.Bytes()...)
	b[RecordHeaderLen+2] ^= 0xFF
	if _, err := ReadRecord(bytes.NewReader(b), nil, 1<<20); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped payload byte: err = %v, want checksum mismatch", err)
	}
	// Implausible length: bigger than maxBytes.
	b = append([]byte(nil), buf.Bytes()...)
	b[3] = 0xFF
	if _, err := ReadRecord(bytes.NewReader(b), nil, 1<<20); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("oversized length: err = %v, want implausible length", err)
	}
}

func TestReadRecordAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "records")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	for _, p := range []string{"first", "second", "third"} {
		n, err := WriteRecord(f, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, offs[len(offs)-1]+n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := ReadRecordAt(rf, offs[1], 1<<20)
	if err != nil {
		t.Fatalf("ReadRecordAt: %v", err)
	}
	if string(got) != "second" {
		t.Errorf("record at offset %d = %q, want %q", offs[1], got, "second")
	}
}

func TestDirLockExclusion(t *testing.T) {
	dir := t.TempDir()
	l1, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatalf("first AcquireDirLock: %v", err)
	}
	if _, err := AcquireDirLock(dir); err == nil {
		t.Fatal("second AcquireDirLock succeeded, want writer exclusion")
	}
	ReleaseLock(l1)
	l2, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatalf("AcquireDirLock after release: %v", err)
	}
	ReleaseLock(l2)
	ReleaseLock(nil) // nil-safe
}

// TestReaderOverlongString: a declared string length near 2^63 must
// fail the read instead of overflowing the bounds check into a slice
// panic, and the failure sticks: later reads return zero values and
// keep the first error.
func TestReaderOverlongString(t *testing.T) {
	b := binary.AppendUvarint(nil, 1<<63-1)
	b = append(b, "select"...)
	r := &Reader{B: b, Fail: func(kind string, n int) error { return fmt.Errorf("%s %d", kind, n) }}
	if s := r.Str(); s != "" || r.Err == nil || r.Err.Error() != fmt.Sprintf("string %d", 1<<63-1) {
		t.Fatalf("Str() = %q, err %v; want the overlong length rejected", s, r.Err)
	}
	first := r.Err
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Str() != "" || r.Err != first {
		t.Fatalf("reads after a failure moved on: err %v", r.Err)
	}
}

func TestReaderFields(t *testing.T) {
	b := []byte{7}
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -5)
	b = binary.AppendUvarint(b, 2)
	b = append(b, "ok"...)
	r := &Reader{B: b, Fail: func(kind string, _ int) error { return errors.New(kind) }}
	if r.Byte() != 7 || r.Uvarint() != 300 || r.Varint() != -5 || r.Str() != "ok" || r.Err != nil || r.Pos != len(b) {
		t.Fatalf("fields misread: pos %d err %v", r.Pos, r.Err)
	}
	if r.Byte(); r.Err == nil || r.Err.Error() != "byte" {
		t.Fatalf("read past the end: err %v, want byte", r.Err)
	}
}
