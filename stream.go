package stethoscope

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"stethoscope/internal/mal"
	"stethoscope/internal/runner"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
)

// Stream compiles and executes one SQL query, yielding result rows as
// the engine produces them instead of materializing the table first.
// It is the one caller of the morsel-driven lowering: the operator
// chain above each scan compiles into a fragment that workers run over
// morsels pulled from a shared cursor, sized by the adaptive tuner from
// the driver table's rows and the core count. A streamable plan (no
// sort, no final aggregate recombination) hands each completed morsel's
// rows to the iterator while later morsels are still executing, so the
// first rows arrive before the scan finishes and the peak resident set
// stays bounded by workers × morsel rows. Plans that must materialize
// (sorts, grouped aggregates) still stream — as one batch when their
// combine stage completes — so every query works through the same
// iterator. ExecPartitions applies to the sorts such plans close with;
// ExecWorkers sets the morsel workers.
//
// Cancel ctx to abandon the query early; Close releases the run either
// way. A streaming run always executes on its own — it never attaches
// to an identical Exec or reads the result cache — and is not recorded
// into the query history, which measures materialized executions (Exec)
// so its wall times stay comparable.
//
// The returned iterator is not safe for concurrent use.
func (db *DB) Stream(ctx context.Context, query string, opts ...ExecOption) (*RowIter, error) {
	set := db.settings(opts)
	set.Morsel = true
	p, err := db.prepare(query, set)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	it := &RowIter{
		names:  resultColumnNames(p.Plan),
		ch:     make(chan []*storage.BAT),
		errc:   make(chan error, 1),
		cancel: cancel,
		idx:    -1,
	}
	go func() {
		_, _, err := db.run.Run(sctx, p, runner.RunOptions{
			Emit: func(names []string, cols []*storage.BAT) error {
				// An unbuffered send per batch: the engine's producers
				// wait for the consumer, which is the backpressure that
				// keeps in-flight batches bounded.
				select {
				case it.ch <- cols:
					return nil
				case <-sctx.Done():
					return sctx.Err()
				}
			},
		})
		it.errc <- err
		close(it.ch)
	}()
	return it, nil
}

// resultColumnNames reads the result column names off the compiled
// plan's sql.rsColumn instructions — available before the first row.
func resultColumnNames(plan *mal.Plan) []string {
	var names []string
	for _, in := range plan.Instrs {
		if in.Module == "sql" && in.Function == "rsColumn" && len(in.Args) >= 3 && in.Args[1].IsConst() {
			names = append(names, in.Args[1].Const.Str)
		}
	}
	return names
}

// RowIter iterates a streaming query's result rows in order. The usual
// loop mirrors database/sql:
//
//	it, err := db.Stream(ctx, q)
//	...
//	defer it.Close()
//	for it.Next() {
//	    var key int64
//	    if err := it.Scan(&key); err != nil { ... }
//	}
//	if err := it.Err(); err != nil { ... }
//
// or, range-over-func style, for row := range it.All() { ... }.
type RowIter struct {
	names  []string
	ch     chan []*storage.BAT
	errc   chan error
	cancel context.CancelFunc

	cur  []*storage.BAT // current batch
	idx  int            // row index into cur
	done bool
	err  error
}

// Columns returns the result column names, available immediately.
func (it *RowIter) Columns() []string { return append([]string(nil), it.names...) }

// Next advances to the next row, blocking until one is available. It
// returns false when the rows are exhausted or the run failed; Err
// distinguishes the two.
func (it *RowIter) Next() bool {
	if it.done {
		return false
	}
	it.idx++
	for it.cur == nil || len(it.cur) == 0 || it.idx >= it.cur[0].Len() {
		batch, ok := <-it.ch
		if !ok {
			it.finish(<-it.errc)
			return false
		}
		it.cur, it.idx = batch, 0
	}
	return true
}

// finish latches the terminal state once the producer goroutine is done.
func (it *RowIter) finish(err error) {
	it.done = true
	it.cur = nil
	if it.err == nil {
		it.err = err
	}
}

// Scan copies the current row into dest, one pointer per column:
// *int64 or *int (integer and date columns), *float64, *string (string
// columns, and date columns formatted YYYY-MM-DD), *bool, or *any
// (the column's native Go value; dates format as strings).
func (it *RowIter) Scan(dest ...any) error {
	if it.cur == nil {
		return errors.New("stethoscope: Scan called without a row (call Next first)")
	}
	if len(dest) != len(it.cur) {
		return fmt.Errorf("stethoscope: Scan got %d destinations for %d columns", len(dest), len(it.cur))
	}
	for c, b := range it.cur {
		if err := scanCell(dest[c], b, it.idx); err != nil {
			return fmt.Errorf("stethoscope: column %d: %w", c, err)
		}
	}
	return nil
}

// scanCell converts one cell into the destination pointer.
func scanCell(dst any, b *storage.BAT, i int) error {
	switch d := dst.(type) {
	case *int64:
		switch b.Kind() {
		case storage.Int, storage.OID, storage.Date:
			*d = b.IntAt(i)
			return nil
		}
	case *int:
		switch b.Kind() {
		case storage.Int, storage.OID, storage.Date:
			*d = int(b.IntAt(i))
			return nil
		}
	case *float64:
		if b.Kind() == storage.Flt {
			*d = b.FltAt(i)
			return nil
		}
	case *string:
		switch b.Kind() {
		case storage.Str:
			*d = b.StrAt(i)
			return nil
		case storage.Date:
			*d = sql.FormatDate(b.IntAt(i))
			return nil
		}
	case *bool:
		if b.Kind() == storage.Bool {
			*d = b.BoolAt(i)
			return nil
		}
	case *any:
		switch b.Kind() {
		case storage.Flt:
			*d = b.FltAt(i)
		case storage.Str:
			*d = b.StrAt(i)
		case storage.Bool:
			*d = b.BoolAt(i)
		case storage.Date:
			*d = sql.FormatDate(b.IntAt(i))
		default:
			*d = b.IntAt(i)
		}
		return nil
	default:
		return fmt.Errorf("unsupported destination type %T", dst)
	}
	return fmt.Errorf("cannot scan %v column into %T", b.Kind(), dst)
}

// Err returns the error that terminated iteration, nil after a clean
// exhaustion or before termination.
func (it *RowIter) Err() error { return it.err }

// Close abandons the query (if still running) and releases the run. It
// is safe to call at any point and more than once; a cancellation Close
// itself provoked is not reported as an error.
func (it *RowIter) Close() error {
	it.cancel()
	if !it.done {
		for range it.ch {
			// Drain so the producer's pending send never leaks the
			// goroutine; the canceled run ends within a morsel.
		}
		err := <-it.errc
		if errors.Is(err, context.Canceled) {
			err = nil
		}
		it.finish(err)
	}
	return it.err
}

// All returns a range-over-func iterator over the remaining rows, each
// as a []any of native cell values (dates formatted YYYY-MM-DD). The
// underlying run is closed when the loop ends, even on early break;
// check Err afterwards.
func (it *RowIter) All() iter.Seq[[]any] {
	return func(yield func([]any) bool) {
		defer it.Close()
		for it.Next() {
			row := make([]any, len(it.cur))
			for c := range row {
				if err := scanCell(&row[c], it.cur[c], it.idx); err != nil {
					it.err = err
					return
				}
			}
			if !yield(row) {
				return
			}
		}
	}
}
