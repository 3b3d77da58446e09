// Command stethoscope is the analysis client of the reproduction. It
// runs in the paper's two modes:
//
// Offline — analyze a pre-existing dot + trace pair:
//
//	stethoscope -dot plan.dot -trace plan.trace [-svg out.svg]
//	            [-color pair|threshold|gradient] [-threshold-us 1000]
//
// Online — attach to a running mserver, execute a query, and analyze the
// live stream:
//
//	stethoscope -server 127.0.0.1:50000 -query "select ..." \
//	            [-partitions 8] [-workers 4]
//
// Watch — poll a server's in-flight query progress (the PROGRESS wire
// command) and render live progress bars until interrupted:
//
//	stethoscope -server 127.0.0.1:50000 -watch [-watch-interval 200ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"stethoscope"
)

func main() {
	dotPath := flag.String("dot", "", "offline: dot file path")
	tracePath := flag.String("trace", "", "offline: trace file path")
	svgPath := flag.String("svg", "", "write the colored display window as SVG")
	colorAlgo := flag.String("color", "pair", "coloring algorithm: pair, threshold, gradient")
	thresholdUs := flag.Int64("threshold-us", 1000, "threshold for -color threshold")
	serverAddr := flag.String("server", "", "online: mserver TCP address")
	query := flag.String("query", "select l_tax from lineitem where l_partkey=1", "online: query to run")
	partitions := flag.Int("partitions", 4, "online: mitosis partitions")
	workers := flag.Int("workers", 4, "online: dataflow workers")
	width := flag.Int("width", 120, "terminal render width")
	ansi := flag.Bool("ansi", false, "colorize terminal output")
	topK := flag.Int("top", 10, "costly instructions to list")
	watchMode := flag.Bool("watch", false, "online: poll the server's in-flight query progress instead of running a query")
	watchEvery := flag.Duration("watch-interval", 200*time.Millisecond, "poll interval for -watch")
	flag.Parse()

	if *watchMode {
		if *serverAddr == "" {
			fmt.Fprintln(os.Stderr, "-watch needs -server")
			os.Exit(2)
		}
		watch(*serverAddr, *watchEvery)
		return
	}

	algo, err := stethoscope.ParseColorAlgo(*colorAlgo)
	if err != nil {
		log.Fatal(err)
	}
	opts := []stethoscope.AnalyzeOption{
		stethoscope.WithColoring(algo),
		stethoscope.WithThreshold(*thresholdUs),
	}
	render := stethoscope.RenderOptions{Width: *width, ANSI: *ansi}

	var a *stethoscope.Analysis
	switch {
	case *dotPath != "" && *tracePath != "":
		a = offline(*dotPath, *tracePath, opts)
	case *serverAddr != "":
		a = online(*serverAddr, *query, *partitions, *workers, opts)
	default:
		fmt.Fprintln(os.Stderr, "need either -dot/-trace (offline) or -server (online)")
		flag.Usage()
		os.Exit(2)
	}

	if err := a.WriteReport(os.Stdout, stethoscope.ReportOptions{Render: render, TopK: *topK}); err != nil {
		log.Fatalf("report: %v", err)
	}
	if *svgPath != "" {
		out, err := a.SVG()
		if err != nil {
			log.Fatalf("svg: %v", err)
		}
		if err := os.WriteFile(*svgPath, []byte(out), 0o644); err != nil {
			log.Fatalf("write svg: %v", err)
		}
		fmt.Printf("\ndisplay window written to %s\n", *svgPath)
	}
}

func offline(dotPath, tracePath string, opts []stethoscope.AnalyzeOption) *stethoscope.Analysis {
	dotText, err := os.ReadFile(dotPath)
	if err != nil {
		log.Fatalf("read dot: %v", err)
	}
	traceText, err := os.ReadFile(tracePath)
	if err != nil {
		log.Fatalf("read trace: %v", err)
	}
	a, err := stethoscope.OpenOffline(string(dotText), string(traceText), opts...)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	return a
}

func online(addr, query string, partitions, workers int, opts []stethoscope.AnalyzeOption) *stethoscope.Analysis {
	ctx := context.Background()
	mon, err := stethoscope.Attach(ctx, "127.0.0.1:0")
	if err != nil {
		log.Fatalf("monitor: %v", err)
	}
	defer mon.Close()
	fmt.Printf("monitor listening on %s\n", mon.Addr())

	r, err := stethoscope.Dial(addr)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer r.Close()
	if err := r.TraceTo(mon.Addr()); err != nil {
		log.Fatalf("trace: %v", err)
	}
	if err := r.Configure(partitions, workers); err != nil {
		log.Fatalf("configure: %v", err)
	}
	fmt.Printf("running: %s\n", query)
	rows, err := r.Query(query)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("result: %d data rows\n", max(0, len(rows)-1))

	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	source, err := mon.WaitComplete(waitCtx)
	if err != nil {
		log.Fatal(err)
	}
	a, err := mon.Analyze(source, opts...)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	return a
}

// watch polls the server's PROGRESS command and redraws one progress
// bar per in-flight query until the process is interrupted.
func watch(addr string, every time.Duration) {
	r, err := stethoscope.Dial(addr)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer r.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("watching %s (interval %s, ctrl-c to stop)\n", addr, every)
	tick := time.NewTicker(every)
	defer tick.Stop()
	prev := 0
	for {
		lines, err := r.Progress()
		if err != nil {
			log.Fatalf("progress: %v", err)
		}
		if prev > 0 {
			fmt.Printf("\x1b[%dA", prev) // cursor back up over the last frame
		}
		if len(lines) == 0 {
			lines = []string{""}
		}
		for _, ln := range lines {
			out := "(idle)"
			if ln != "" {
				out = progressBar(ln)
			}
			fmt.Printf("\x1b[2K%s\n", out)
		}
		// Blank out leftover rows when the in-flight set shrank.
		for i := len(lines); i < prev; i++ {
			fmt.Print("\x1b[2K\n")
		}
		prev = max(prev, len(lines))
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// progressBar renders one PROGRESS k=v line as a bar. The sql field is
// quoted and always last, so split it off before cutting on spaces.
func progressBar(line string) string {
	sql := ""
	if i := strings.Index(line, " sql="); i >= 0 {
		if s, err := strconv.Unquote(strings.TrimSpace(line[i+len(" sql="):])); err == nil {
			sql = s
		}
		line = line[:i]
	}
	kv := make(map[string]string)
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	frac, _ := strconv.ParseFloat(kv["fraction"], 64)
	const w = 30
	full := int(frac*w + 0.5)
	if full > w {
		full = w
	}
	bar := strings.Repeat("#", full) + strings.Repeat(".", w-full)
	return fmt.Sprintf("[%s] %5.1f%%  id=%s instr=%s/%s  %s",
		bar, frac*100, kv["id"], kv["instr_done"], kv["instr_total"], sql)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
