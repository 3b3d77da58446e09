package batstore

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stethoscope/internal/fsio"
	"stethoscope/internal/storage"
)

// testCatalog builds a small catalog covering every tail kind and both
// compressible and incompressible data, sized to span several segments
// at the given segment size.
func testCatalog(t *testing.T, rows int) *storage.Catalog {
	t.Helper()
	ints := make([]int64, rows)   // unique: raw varint
	runs := make([]int64, rows)   // long runs: RLE
	flts := make([]float64, rows) // raw bits
	names := make([]string, rows) // unique strings: raw
	flags := make([]string, rows) // 3 distinct: dict
	bools := make([]bool, rows)   // bit-packed
	dates := make([]int64, rows)  // date family
	for i := 0; i < rows; i++ {
		ints[i] = int64(i * 7)
		runs[i] = int64(i / 97)
		flts[i] = float64(i) * 0.25
		names[i] = "value-" + strings.Repeat("x", i%5) + "-" + string(rune('a'+i%26))
		flags[i] = []string{"R", "A", "N"}[i%3]
		bools[i] = i%3 == 0
		dates[i] = 8035 + int64(i%2405)
	}
	cat := storage.NewCatalog()
	err := cat.Define("sys", "mixed",
		[]storage.Column{
			{Name: "k_int", Kind: storage.Int},
			{Name: "k_run", Kind: storage.Int},
			{Name: "k_flt", Kind: storage.Flt},
			{Name: "k_name", Kind: storage.Str},
			{Name: "k_flag", Kind: storage.Str},
			{Name: "k_bool", Kind: storage.Bool},
			{Name: "k_date", Kind: storage.Date},
		},
		map[string]*storage.BAT{
			"k_int":  storage.FromInts(storage.Int, ints),
			"k_run":  storage.FromInts(storage.Int, runs),
			"k_flt":  storage.FromFloats(flts),
			"k_name": storage.FromStrings(names),
			"k_flag": storage.FromStrings(flags),
			"k_bool": storage.FromBools(bools),
			"k_date": storage.FromInts(storage.Date, dates),
		})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// batsEqual compares two BATs value by value.
func batsEqual(t *testing.T, got, want *storage.BAT, label string) {
	t.Helper()
	if got.Kind() != want.Kind() || got.Len() != want.Len() {
		t.Fatalf("%s: kind/len %v/%d, want %v/%d", label, got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		switch want.Kind() {
		case storage.Flt:
			if got.FltAt(i) != want.FltAt(i) {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got.FltAt(i), want.FltAt(i))
			}
		case storage.Str:
			if got.StrAt(i) != want.StrAt(i) {
				t.Fatalf("%s: row %d = %q, want %q", label, i, got.StrAt(i), want.StrAt(i))
			}
		case storage.Bool:
			if got.BoolAt(i) != want.BoolAt(i) {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got.BoolAt(i), want.BoolAt(i))
			}
		default:
			if got.IntAt(i) != want.IntAt(i) {
				t.Fatalf("%s: row %d = %d, want %d", label, i, got.IntAt(i), want.IntAt(i))
			}
		}
	}
}

func TestPersistOpenRoundTrip(t *testing.T) {
	const rows, segRows = 1000, 128 // 8 segments, last one partial
	dir := t.TempDir()
	cat := testCatalog(t, rows)
	if err := Persist(dir, cat, map[string]string{"origin": "test"}, segRows); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := st.Meta()["origin"]; got != "test" {
		t.Errorf("meta origin = %q, want %q", got, "test")
	}
	tabs := st.Tables()
	if len(tabs) != 1 || tabs[0].Rows != rows || tabs[0].Columns != 7 {
		t.Fatalf("Tables() = %+v, want one 7-column %d-row table", tabs, rows)
	}
	want, _ := cat.Table("sys", "mixed")
	for _, col := range want.Columns {
		wb, _ := want.Column(col.Name)
		gb, err := st.ReadColumn("sys", "mixed", col.Name)
		if err != nil {
			t.Fatalf("ReadColumn(%s): %v", col.Name, err)
		}
		batsEqual(t, gb, wb, col.Name)
	}
}

func TestLazyCatalogLoadsOnBind(t *testing.T) {
	dir := t.TempDir()
	if err := Persist(dir, testCatalog(t, 300), nil, 64); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := st.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := cat.Table("sys", "mixed")
	if !ok {
		t.Fatal("lazy catalog is missing sys.mixed")
	}
	if tab.Rows() != 300 {
		t.Fatalf("Rows() = %d before any load, want 300", tab.Rows())
	}
	b, err := cat.Bind("sys", "mixed", "k_flag")
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if b.Len() != 300 || b.StrAt(1) != "A" {
		t.Fatalf("bound column: len=%d row1=%q", b.Len(), b.StrAt(1))
	}
	b2, err := cat.Bind("sys", "mixed", "k_flag")
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b {
		t.Error("second bind re-loaded the column instead of reusing the materialized BAT")
	}
	if _, err := cat.Bind("sys", "mixed", "no_such"); err == nil {
		t.Error("bind of unknown column succeeded")
	}
}

func TestWindowedReaderSegmentAtATime(t *testing.T) {
	dir := t.TempDir()
	if err := Persist(dir, testCatalog(t, 1000), nil, 128); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.OpenColumn("sys", "mixed", "k_int")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := storage.New(r.Kind(), r.Rows())
	var sizes []int
	for {
		n, err := r.Next(dst)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) != 8 {
		t.Fatalf("segments = %d, want 8", len(sizes))
	}
	for i, n := range sizes[:7] {
		if n != 128 {
			t.Errorf("segment %d has %d rows, want 128", i, n)
		}
	}
	if sizes[7] != 1000-7*128 {
		t.Errorf("last segment has %d rows, want %d", sizes[7], 1000-7*128)
	}
	if dst.Len() != 1000 {
		t.Errorf("materialized %d rows, want 1000", dst.Len())
	}
}

// corruptColumnFile flips one byte inside the payload of the given
// segment record of a column file.
func corruptColumnFile(t *testing.T, path string, seg int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for i := 0; i < seg; i++ {
		plen, _ := fsio.ParseRecordHeader(data[off:])
		off += fsio.RecordHeaderLen + int64(plen)
	}
	data[off+fsio.RecordHeaderLen+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSegmentNamesFile(t *testing.T) {
	dir := t.TempDir()
	if err := Persist(dir, testCatalog(t, 1000), nil, 128); err != nil {
		t.Fatal(err)
	}
	file := colFileName("sys", "mixed", "k_flt")
	corruptColumnFile(t, filepath.Join(dir, file), 3)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err) // manifest untouched: open must still work
	}
	_, err = st.ReadColumn("sys", "mixed", "k_flt")
	if err == nil {
		t.Fatal("ReadColumn on a corrupt segment succeeded")
	}
	if !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "segment 3") {
		t.Errorf("corruption error %q does not name file %q and segment 3", err, file)
	}
	// Other columns are unaffected.
	if _, err := st.ReadColumn("sys", "mixed", "k_int"); err != nil {
		t.Errorf("healthy column failed after sibling corruption: %v", err)
	}
	// The lazy catalog surfaces the same error through Bind.
	cat, err := st.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Bind("sys", "mixed", "k_flt"); err == nil || !strings.Contains(err.Error(), file) {
		t.Errorf("lazy bind error = %v, want segment file named", err)
	}
}

func TestTornTailNamesFile(t *testing.T) {
	dir := t.TempDir()
	if err := Persist(dir, testCatalog(t, 1000), nil, 128); err != nil {
		t.Fatal(err)
	}
	file := colFileName("sys", "mixed", "k_name")
	path := filepath.Join(dir, file)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.ReadColumn("sys", "mixed", "k_name")
	if err == nil || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn-tail error = %v, want file named and torn reported", err)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	_, err := Open(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "not a persisted dataset") {
		t.Fatalf("Open(empty dir) = %v, want not-a-dataset error", err)
	}
}

func TestOpenCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := Persist(dir, testCatalog(t, 64), nil, 32); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[fsio.RecordHeaderLen+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Open(corrupt manifest) = %v, want checksum error", err)
	}
}

func TestPersistWriterExclusion(t *testing.T) {
	dir := t.TempDir()
	lock, err := fsio.AcquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fsio.ReleaseLock(lock)
	if err := Persist(dir, testCatalog(t, 64), nil, 32); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("Persist under a held lock = %v, want locked-by-another-writer error", err)
	}
}

func TestRePersistReplacesDataset(t *testing.T) {
	dir := t.TempDir()
	if err := Persist(dir, testCatalog(t, 500), map[string]string{"gen": "1"}, 128); err != nil {
		t.Fatal(err)
	}
	if err := Persist(dir, testCatalog(t, 200), map[string]string{"gen": "2"}, 64); err != nil {
		t.Fatalf("re-Persist: %v", err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Meta()["gen"] != "2" || st.Tables()[0].Rows != 200 {
		t.Errorf("reopened dataset meta=%v rows=%d, want gen=2 rows=200", st.Meta(), st.Tables()[0].Rows)
	}
	if _, err := st.ReadColumn("sys", "mixed", "k_int"); err != nil {
		t.Errorf("column read after re-persist: %v", err)
	}
}

func TestSegmentEncodingChoices(t *testing.T) {
	// Constant ints must RLE, unique ints must not; low-cardinality
	// strings must dict, unique strings must not.
	constant := make([]int64, 256)
	unique := make([]int64, 256)
	flags := make([]string, 256)
	names := make([]string, 256)
	for i := range unique {
		unique[i] = int64(i)
		flags[i] = []string{"O", "F"}[i%2]
		names[i] = strings.Repeat("u", i%9) + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	cases := []struct {
		label string
		bat   *storage.BAT
		enc   byte
	}{
		{"constant ints", storage.FromInts(storage.Int, constant), encRLEInt},
		{"unique ints", storage.FromInts(storage.Int, unique), encRawInt},
		{"two-value strings", storage.FromStrings(flags), encDictStr},
		{"unique strings", storage.FromStrings(names), encRawStr},
	}
	for _, tc := range cases {
		payload := encodeSegment(nil, tc.bat, 0, tc.bat.Len())
		if payload[0] != tc.enc {
			t.Errorf("%s: encoding %d, want %d", tc.label, payload[0], tc.enc)
		}
		dst := storage.New(tc.bat.Kind(), tc.bat.Len())
		n, err := decodeSegment(payload, dst, 1<<16)
		if err != nil || n != tc.bat.Len() {
			t.Fatalf("%s: decode = (%d, %v)", tc.label, n, err)
		}
		batsEqual(t, dst, tc.bat, tc.label)
	}
}
