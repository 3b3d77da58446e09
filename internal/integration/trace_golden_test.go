package integration

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/planner"
	"stethoscope/internal/profiler"
	"stethoscope/internal/tpch"
	"stethoscope/internal/trace"
)

// bumpIntegers adds one to every integer literal of s that stands alone
// outside quotes and is not a LIMIT count, so s binds to the same tree
// with other literals.
func bumpIntegers(s string) string {
	var b strings.Builder
	quoted := false
	for i := 0; i < len(s); {
		c := s[i]
		if c == '\'' {
			quoted = !quoted
		}
		isWord := func(c byte) bool {
			return c == '_' || c == '.' || c == '#' || c|0x20 >= 'a' && c|0x20 <= 'z' || c >= '0' && c <= '9'
		}
		if quoted || c < '0' || c > '9' || i > 0 && isWord(s[i-1]) {
			b.WriteByte(c)
			i++
			continue
		}
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		lit := s[i:j]
		if j < len(s) && isWord(s[j]) || strings.HasSuffix(strings.TrimRight(s[:i], " "), "limit") {
			b.WriteString(lit)
		} else {
			n, _ := strconv.Atoi(lit)
			b.WriteString(strconv.Itoa(n + 1))
		}
		i = j
	}
	return b.String()
}

// TestFixedClockTraceGolden pins the trace text — length and SHA-256 of
// trace.Write — of every sweep statement run sequentially, at 1 and 7
// partitions, under a profiler whose clock advances 7µs on every read.
// Each plan is an instance of a template compiled first from the same
// statement with its integers moved, so its statement text comes from
// an instance; a registry is attached so the engine's metric path runs
// beside the profiler. Event times count the profiler's clock reads, so
// the file moves if the engine reads the profiler's clock more or less
// often, orders events differently, or renders a statement other than
// StmtString. `go test ./internal/integration -run
// TestFixedClockTraceGolden -update` regenerates it when that is meant.
func TestFixedClockTraceGolden(t *testing.T) {
	cat := loadCatalog(t, 0.01, 42)
	pl := optimizer.Default()
	serving := &planner.Planner{Cat: cat, Cache: plancache.New(plancache.DefaultSize),
		Templates: plancache.NewTemplates(plancache.DefaultSize), Pipeline: pl, PassSpec: pl.Spec()}
	eng := engine.New(cat)
	eng.SetMetrics(metrics.NewRegistry())

	var got strings.Builder
	for i, q := range tpch.SweepQueries() {
		for _, parts := range []int{1, 7} {
			if _, err := serving.Compile(bumpIntegers(q), parts, false); err != nil {
				t.Fatalf("%s [partitions=%d]: %v", bumpIntegers(q), parts, err)
			}
			c, err := serving.Compile(q, parts, false)
			if err != nil {
				t.Fatalf("%s [partitions=%d]: %v", q, parts, err)
			}
			sink := profiler.NewOwnedSliceSink(2 * len(c.Plan.Instrs))
			prof := profiler.New(sink)
			clock := time.Unix(0, 0)
			prof.SetClock(func() time.Time {
				clock = clock.Add(7 * time.Microsecond)
				return clock
			})
			if _, err := eng.Run(c.Plan, engine.Options{Workers: 1, Profiler: prof}); err != nil {
				t.Fatalf("%s [partitions=%d]: %v", q, parts, err)
			}
			var text strings.Builder
			if err := trace.Write(&text, sink.Take()); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%02d partitions=%d instance=%-5t %8d %x\n",
				i, parts, c.Instantiated, text.Len(), sha256.Sum256([]byte(text.String())))
		}
	}

	path := filepath.Join("testdata", "trace_clock.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d trace lines, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("trace bytes moved:\n got: %s\nwant: %s", gl[i], wl[i])
		}
	}
}
