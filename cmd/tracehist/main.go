// Command tracehist lists, inspects, diffs, and renders the runs of a
// durable trace store — the operator's answer to "what ran slowly
// yesterday?". It works on any store written by a DB opened with
// WithHistory, by a server, or by tracegen -store; no live server is
// needed.
//
// Usage:
//
//	tracehist -dir .history list [-n 20]
//	tracehist -dir .history top [-n 10]
//	tracehist -dir .history show <id>
//	tracehist -dir .history diff <a> <b>
//	tracehist -dir .history report <id>
//	tracehist -dir .history svg <id> [-o run.svg]
//	tracehist -dir .history export <id> [-o run]
//	tracehist -dir .history rollup [module|operator]
//	tracehist -dir .history stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"stethoscope"
)

// subFlags parses a subcommand's own flags, so "tracehist -dir d svg 2
// -o out.svg" works with the flags after the positional arguments.
func subFlags(name string, args []string) (*flag.FlagSet, *int, *string, []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	n := fs.Int("n", 0, "row limit (0 = default)")
	out := fs.String("o", "", "output path (svg) or prefix (export)")
	// Split positionals from flags regardless of order.
	var pos, flagArgs []string
	for i := 0; i < len(args); i++ {
		if len(args[i]) > 1 && args[i][0] == '-' {
			flagArgs = append(flagArgs, args[i:]...)
			break
		}
		pos = append(pos, args[i])
	}
	fs.Parse(flagArgs)
	return fs, n, out, pos
}

func main() {
	log.SetFlags(0)
	dir := flag.String("dir", ".history", "trace store directory")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	// Read-only: inspecting a store a live server is appending to is
	// safe — no writer lock is taken and no recovery truncation runs.
	h, err := stethoscope.OpenHistoryReadOnly(*dir)
	if err != nil {
		log.Fatalf("open history: %v", err)
	}
	defer h.Close()

	cmd, rest := args[0], args[1:]
	_, n, out, pos := subFlags(cmd, rest)
	switch cmd {
	case "list":
		printRuns(h.Queries(*n))
	case "top":
		limit := *n
		if limit == 0 {
			limit = 10
		}
		printRuns(h.TopN(limit))
	case "show":
		show(h, argID(pos, 0))
	case "diff":
		diff(h, argID(pos, 0), argID(pos, 1))
	case "report":
		report(h, argID(pos, 0))
	case "svg":
		writeSVG(h, argID(pos, 0), *out)
	case "export":
		export(h, argID(pos, 0), *out)
	case "rollup":
		kind := "module"
		if len(pos) > 0 {
			kind = pos[0]
		}
		rollup(h, kind)
	case "stats":
		st := h.Stats()
		fmt.Printf("segments=%d bytes=%d runs=%d recovered_events=%d truncated_bytes=%d dropped_segments=%d dropped_runs=%d\n",
			st.Segments, st.Bytes, st.Runs, st.RecoveredEvents, st.TruncatedBytes, st.DroppedSegments, st.DroppedRuns)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `tracehist inspects a durable query-history store.

usage: tracehist -dir <store> <command>

commands:
  list [-n N]        recorded runs, most recent first
  top [-n N]         slowest completed runs, slowest first (default 10)
  show <id>          one run: metadata, module rollup, costliest instructions
  diff <a> <b>       compare two runs of the same SQL (regression check)
  report <id>        full analysis report (colored plan, utilization, ...)
  svg <id> [-o f]    render the colored plan graph as SVG
  export <id> [-o p] write <p>.dot and <p>.trace for OpenOffline tooling
  rollup [module|operator]  busy-time rollup across all stored runs
  stats              store footprint and maintenance counters
`)
}

func argID(args []string, i int) uint64 {
	if len(args) <= i {
		usage()
		os.Exit(2)
	}
	id, err := strconv.ParseUint(args[i], 10, 64)
	if err != nil {
		log.Fatalf("bad run id %q: %v", args[i], err)
	}
	return id
}

func printRuns(runs []stethoscope.RunInfo) {
	if len(runs) == 0 {
		fmt.Println("(no recorded runs)")
		return
	}
	fmt.Printf("%-6s %-25s %12s %8s %6s %5s %-s\n", "ID", "START", "ELAPSED", "EVENTS", "ROWS", "OK", "SQL")
	for _, r := range runs {
		status := "yes"
		if !r.OK() {
			status = "err"
		}
		sql := r.SQL
		if len(sql) > 60 {
			sql = sql[:57] + "..."
		}
		fmt.Printf("%-6d %-25s %12s %8d %6d %5s %s\n",
			r.ID, r.Start.Format(time.RFC3339), time.Duration(r.ElapsedUs)*time.Microsecond,
			r.Events, r.Rows, status, sql)
	}
}

func show(h *stethoscope.History, id uint64) {
	run, err := h.Get(id)
	if err != nil {
		log.Fatal(err)
	}
	r := run.Info
	fmt.Printf("run %d\n  sql:          %s\n  start:        %s\n  elapsed:      %s\n  partitions:   %d\n  workers:      %d\n  instructions: %d\n  events:       %d\n  rows:         %d\n  cache hit:    %t\n",
		r.ID, r.SQL, r.Start.Format(time.RFC3339), time.Duration(r.ElapsedUs)*time.Microsecond,
		r.Partitions, r.Workers, r.Instructions, r.Events, r.Rows, r.CacheHit)
	if r.AutoTuned {
		fmt.Printf("  auto-tuned:   %s\n", r.TuneReason)
	}
	if r.Err != "" {
		fmt.Printf("  error:        %s\n", r.Err)
	}
	fmt.Println("\nmodule breakdown:")
	for _, m := range run.ModuleBreakdown() {
		fmt.Printf("  %-12s %6d calls %12s (%.1f%%)\n", m.Module, m.Calls,
			time.Duration(m.BusyUs)*time.Microsecond, 100*m.Share)
	}
	fmt.Println("\ncostliest instructions:")
	fmt.Print(stethoscope.RenderCostly(run.Costly(10), stethoscope.DefaultRender()))
}

func diff(h *stethoscope.History, a, b uint64) {
	d, err := h.Compare(a, b)
	if err != nil {
		log.Fatal(err)
	}
	verdict := "no regression"
	if d.Regression {
		verdict = "REGRESSION (>=10% slower)"
	}
	fmt.Printf("diff of runs %d -> %d  (%s)\n  sql:     %s\n  elapsed: %s -> %s (%+d us)  %s\n",
		d.A.ID, d.B.ID, verdict, d.A.SQL,
		time.Duration(d.A.ElapsedUs)*time.Microsecond, time.Duration(d.B.ElapsedUs)*time.Microsecond,
		d.ElapsedDeltaUs, verdict)
	fmt.Println("\nper-module deltas:")
	for _, m := range d.Modules {
		fmt.Printf("  %-12s %12d us -> %12d us  (%+d us)\n", m.Module, m.AUs, m.BUs, m.DeltaUs)
	}
	fmt.Println("\nlargest instruction deltas:")
	for i, in := range d.Instrs {
		if i >= 10 {
			break
		}
		stmt := in.Stmt
		if len(stmt) > 56 {
			stmt = stmt[:53] + "..."
		}
		fmt.Printf("  pc=%-5d %+10d us  %s\n", in.PC, in.DeltaUs, stmt)
	}
}

func report(h *stethoscope.History, id uint64) {
	a, err := h.Replay(id)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.WriteReport(os.Stdout, stethoscope.ReportOptions{}); err != nil {
		log.Fatal(err)
	}
}

func writeSVG(h *stethoscope.History, id uint64, out string) {
	a, err := h.Replay(id)
	if err != nil {
		log.Fatal(err)
	}
	svg, err := a.SVG()
	if err != nil {
		log.Fatal(err)
	}
	if out == "" {
		out = fmt.Sprintf("run-%d.svg", id)
	}
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

func export(h *stethoscope.History, id uint64, prefix string) {
	run, err := h.Get(id)
	if err != nil {
		log.Fatal(err)
	}
	if prefix == "" {
		prefix = fmt.Sprintf("run-%d", id)
	}
	if err := os.WriteFile(prefix+".dot", []byte(run.Dot()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(prefix+".trace", []byte(run.TraceText()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s.dot and %s.trace (%d events)\n", prefix, prefix, run.TraceLen())
}

func rollup(h *stethoscope.History, kind string) {
	var (
		rows []stethoscope.AggStat
		err  error
	)
	switch kind {
	case "module":
		rows, err = h.ModuleRollup()
	case "operator":
		rows, err = h.OperatorRollup()
	default:
		log.Fatalf("unknown rollup kind %q (have module, operator)", kind)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-32s %8s %14s %7s\n", kind, "CALLS", "BUSY", "SHARE")
	for _, r := range rows {
		name := r.Module
		if name == "" {
			name = "(other)"
		}
		fmt.Printf("%-32s %8d %14s %6.1f%%\n", name, r.Calls,
			time.Duration(r.BusyUs)*time.Microsecond, 100*r.Share)
	}
}
