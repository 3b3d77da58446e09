// Engine-level tests of streaming a run's result (emit.go): a plan whose
// result columns are packs of the mitosis slices hands each non-empty
// slice to Emit in slice order while the run is still executing; every
// other plan hands over its final result once.
package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"stethoscope/internal/storage"
)

// TestEmitStreamsResultParts keeps every batch Emit receives without
// copying it and checks the count of calls, that the first arrives
// before the run's last instruction, and — after RunContext returned
// and the run released its intermediates — that the kept batches
// concatenate to the result's bytes. A part the mat.pack retires while
// its batch is still held would read the stethopoison sentinel there,
// so that last check fails under -tags stethopoison unless the stream
// pins what it emits.
func TestEmitStreamsResultParts(t *testing.T) {
	cases := []struct {
		q       string
		batches int  // Emit calls
		early   bool // the first call comes before the last instruction
	}{
		// Four slices, every one with rows: one call per slice.
		{"select l_orderkey from lineitem where l_quantity > 10", 4, true},
		// lineitem is ordered by l_orderkey, so only the first slice has
		// rows: the three empty parts make no call.
		{"select l_orderkey, l_tax from lineitem where l_orderkey < 100", 1, true},
		// Bare columns are not sliced, so there is no pack to stream:
		// the final result is the one batch.
		{"select l_orderkey from lineitem", 1, false},
		// A sort packs before it orders: one batch, after the run.
		{"select l_orderkey from lineitem where l_quantity > 10 order by l_orderkey", 1, false},
	}
	for _, tc := range cases {
		plan := compileQ(t, tc.q, 4)
		for _, workers := range []int{1, 4} {
			eng := New(testCat)
			var (
				kept  [][]*storage.BAT
				early bool
			)
			res, err := eng.RunContext(context.Background(), plan, Options{
				Workers: workers,
				Emit: func(names []string, cols []*storage.BAT) error {
					if len(kept) == 0 {
						p := eng.Progress()
						early = len(p) == 1 && p[0].InstrDone < p[0].InstrTotal
					}
					if len(cols) == 0 || cols[0].Len() == 0 {
						t.Errorf("%s (workers=%d): empty batch", tc.q, workers)
					}
					kept = append(kept, cols)
					return nil
				},
			})
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", tc.q, workers, err)
			}
			if len(kept) != tc.batches || early != tc.early {
				t.Errorf("%s (workers=%d): %d batches, first before the last instruction: %t; want %d, %t",
					tc.q, workers, len(kept), early, tc.batches, tc.early)
			}
			if got, want := batchesText(t, res.Names, kept), resultText(t, res); got != want {
				t.Errorf("%s (workers=%d): the kept batches render\n%.300s\nthe result renders\n%.300s",
					tc.q, workers, got, want)
			}
		}
	}
}

// batchesText renders the batches concatenated in order, as
// Result.WriteText renders a result.
func batchesText(t *testing.T, names []string, batches [][]*storage.BAT) string {
	t.Helper()
	cols := make([]*storage.BAT, len(names))
	for c := range cols {
		parts := make([]*storage.BAT, len(batches))
		for i, b := range batches {
			parts[i] = b[c]
		}
		var err error
		if cols[c], err = storage.Concat(parts); err != nil {
			t.Fatal(err)
		}
	}
	return resultText(t, &Result{Names: names, Cols: cols})
}

func resultText(t *testing.T, r *Result) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEmitErrorAbortsRun: a consumer that refuses a batch stops the run,
// streamed or not, and the run returns the consumer's error; a streamed
// run offers nothing after the refusal.
func TestEmitErrorAbortsRun(t *testing.T) {
	boom := errors.New("consumer full")
	for _, q := range []string{
		"select l_orderkey from lineitem where l_quantity > 10", // streams its parts
		"select l_orderkey from lineitem",                       // one final batch
	} {
		plan := compileQ(t, q, 4)
		for _, workers := range []int{1, 4} {
			eng := New(testCat)
			calls := 0
			_, err := eng.RunContext(context.Background(), plan, Options{
				Workers: workers,
				Emit: func(names []string, cols []*storage.BAT) error {
					calls++
					return boom
				},
			})
			if !errors.Is(err, boom) {
				t.Fatalf("%s (workers=%d): err = %v, want the consumer's error", q, workers, err)
			}
			if calls != 1 {
				t.Errorf("%s (workers=%d): Emit called %d times after refusing the first batch", q, workers, calls)
			}
			if left := eng.Progress(); len(left) != 0 {
				t.Errorf("%s (workers=%d): aborted run still in the progress table: %+v", q, workers, left)
			}
		}
	}
}
