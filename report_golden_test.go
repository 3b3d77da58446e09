package stethoscope

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReportGolden pins the terminal pictures of the offline path, byte
// for byte: for the benchmark's twelve (query, partitions) pairs and the
// synthetic trace of TestOfflineSVGGolden, the length and SHA-256 of
// WriteReport under pair-elision, of WriteReport after Recolor(gradient)
// with ANSI colour, of RenderReplay after a hundred replay steps and a
// flush (plain and ANSI), and of RenderReplay after rewinding forty
// events. `go test -run TestReportGolden -update` regenerates it when a
// change to the report (or to the plans behind it) is intended.
func TestReportGolden(t *testing.T) {
	db, err := Open(WithScaleFactor(0.01), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var b strings.Builder
	record := func(pair, picture, text string) {
		fmt.Fprintf(&b, "%s %s %d %x\n", pair, picture, len(text), sha256.Sum256([]byte(text)))
	}
	report := func(pair string, a *Analysis, o ReportOptions) string {
		var w strings.Builder
		if err := a.WriteReport(&w, o); err != nil {
			t.Fatalf("%s: %v", pair, err)
		}
		return w.String()
	}
	ansi := RenderOptions{Width: 160, ANSI: true}
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "QX1", "QX2"} {
		for _, parts := range []int{16, 64} {
			pair := fmt.Sprintf("%s/p%d", id, parts)
			dotText := execBundled(t, db, id, parts).Dot()
			a, err := OpenOffline(dotText, syntheticTrace(t, dotText))
			if err != nil {
				t.Fatalf("%s: %v", pair, err)
			}
			record(pair, "report", report(pair, a, ReportOptions{}))

			a.Recolor(WithColoring(ColorGradient))
			record(pair, "report-gradient-ansi", report(pair, a, ReportOptions{Render: ansi}))

			now := time.Unix(0, 0)
			for i := 0; i < 100; i++ {
				if _, ok := a.Replay().Step(now); !ok {
					break
				}
				now = now.Add(time.Millisecond)
			}
			a.FlushReplay(now.Add(time.Minute))
			record(pair, "replay", a.RenderReplay(DefaultRender()))
			record(pair, "replay-ansi", a.RenderReplay(ansi))

			a.Replay().Rewind(40)
			record(pair, "rewind", a.RenderReplay(DefaultRender()))
		}
	}
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
