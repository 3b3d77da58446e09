// Package fsio is the shared on-disk discipline of the durable stores:
// the LOCK-file writer exclusion and the length-prefixed, CRC-checksummed
// record framing that internal/tracestore proved out and
// internal/batstore reuses. Keeping one copy here means a torn or
// corrupted file is detected the same way — and reported with the same
// precision — no matter which store wrote it.
//
// The framing is:
//
//	u32le payloadLen | u32le crc32(payload) | payload
//
// A record that cannot be read whole (short header, short payload,
// implausible length, checksum mismatch) is distinguishable from a clean
// end of file, which is what makes torn-tail recovery and
// corruption-naming error messages possible. Inside a verified frame,
// both stores decode their payloads with the one Reader.
package fsio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// LockName is the conventional writer-exclusion lock file inside a store
// directory.
const LockName = "LOCK"

// RecordHeaderLen is the fixed framing header: payload length + CRC.
const RecordHeaderLen = 8

// Checksum is the record checksum both stores stamp and verify (CRC-32,
// IEEE polynomial).
func Checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// PutRecordHeader writes the framing header for payload into hdr, which
// must be at least RecordHeaderLen bytes.
func PutRecordHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
}

// ParseRecordHeader splits a framing header into the payload length and
// its expected checksum.
func ParseRecordHeader(hdr []byte) (plen, crc uint32) {
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
}

// WriteRecord frames payload onto w and returns the number of bytes
// written (header + payload).
func WriteRecord(w io.Writer, payload []byte) (int64, error) {
	var hdr [RecordHeaderLen]byte
	PutRecordHeader(hdr[:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return RecordHeaderLen + int64(len(payload)), nil
}

// ReadRecord reads the next framed record from r, reusing buf when it is
// large enough. It returns io.EOF cleanly at a record boundary,
// io.ErrUnexpectedEOF when the file ends mid-record (a torn tail), and a
// checksum/length error when the record is corrupt.
func ReadRecord(r io.Reader, buf []byte, maxBytes uint32) ([]byte, error) {
	var hdr [RecordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	plen, crc := ParseRecordHeader(hdr[:])
	if plen == 0 || plen > maxBytes {
		return nil, fmt.Errorf("implausible record length %d", plen)
	}
	if cap(buf) < int(plen) {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if Checksum(buf) != crc {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return buf, nil
}

// ReadRecordAt reads and verifies one framed record at off.
func ReadRecordAt(r io.ReaderAt, off int64, maxBytes uint32) ([]byte, error) {
	var hdr [RecordHeaderLen]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	plen, crc := ParseRecordHeader(hdr[:])
	if plen == 0 || plen > maxBytes {
		return nil, fmt.Errorf("implausible record length %d at offset %d", plen, off)
	}
	payload := make([]byte, plen)
	if _, err := r.ReadAt(payload, off+RecordHeaderLen); err != nil {
		return nil, err
	}
	if Checksum(payload) != crc {
		return nil, fmt.Errorf("checksum mismatch at offset %d", off)
	}
	return payload, nil
}

// AcquireDirLock takes the writer-exclusion lock of a store directory:
// it creates (or opens) dir/LOCK and flocks it exclusively without
// blocking. The lock drops automatically when the process exits — even
// via SIGKILL — so a crashed writer never bricks a store. The caller
// keeps the returned file open for the lock's lifetime and releases it
// with ReleaseLock.
func AcquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, LockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s is locked by another writer: %w", dir, err)
	}
	return f, nil
}

// ReleaseLock closes the lock file, dropping the flock. Safe on nil.
func ReleaseLock(f *os.File) {
	if f != nil {
		f.Close()
	}
}

// Reader is a sticky-error cursor over one record payload: the first
// field that cannot be read sets Err, and every later read returns a
// zero value, so a decoder reads a whole record and checks Err once. A
// declared string length is checked against the bytes left, never added
// to Pos first, so a length near 2^63 is an error rather than an
// overflowed slice bound.
type Reader struct {
	B   []byte // the payload
	Pos int    // offset of the next unread byte
	Err error  // the first failure
	// Fail builds the error for the first field that cannot be read,
	// in the owning store's wording. kind is "byte", "uvarint", "varint"
	// or "string"; n is the declared length of a string that overruns
	// the payload, 0 for the other kinds.
	Fail func(kind string, n int) error
}

func (r *Reader) fail(kind string, n int) {
	if r.Err == nil {
		r.Err = r.Fail(kind, n)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Err != nil || r.Pos >= len(r.B) {
		r.fail("byte", 0)
		return 0
	}
	v := r.B[r.Pos]
	r.Pos++
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B[r.Pos:])
	if n <= 0 {
		r.fail("uvarint", 0)
		return 0
	}
	r.Pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.B[r.Pos:])
	if n <= 0 {
		r.fail("varint", 0)
		return 0
	}
	r.Pos += n
	return v
}

// Str reads a uvarint length followed by that many bytes.
func (r *Reader) Str() string {
	n := int(r.Uvarint())
	if r.Err != nil {
		return ""
	}
	if n < 0 || n > len(r.B)-r.Pos {
		r.fail("string", n)
		return ""
	}
	s := string(r.B[r.Pos : r.Pos+n])
	r.Pos += n
	return s
}
