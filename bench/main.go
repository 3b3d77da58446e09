// Command bench is the repository's benchmark: five workloads over the whole
// path from a TCP QUERY to a picture, seven bounded end-to-end metrics (and
// the failure count) from an untraced pass, and a traced pass that times the
// calls into every layer from outside. BENCHMARK.json at the repository root
// names what it prints; README.md in this directory explains it.
//
//	go run -C bench stethoscope/bench                     every workload, both passes
//	go run -C bench stethoscope/bench -repeat 3           three sets, spread against the bounds
//	go run -C bench stethoscope/bench -workload serve-wide -seed 7 -seconds 10 -trace 0
//
// The last form is the contract BENCHMARK.json's command is run under: one
// workload, and as the last line of standard output one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && strings.HasPrefix(args[0], "-role=") {
		return childMain(strings.TrimPrefix(args[0], "-role="))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload alone and end with the one-line result `name` (default: every workload)")
	seed := fs.Int64("seed", 1, "statement streams are a function of (workload, seed, connection)")
	seconds := fs.Float64("seconds", 15, "measured window per workload")
	warmup := fs.Float64("warmup", 3, "warm-up before the window, not measured")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run `N` complete untraced sets and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{
		seed:    *seed,
		warmup:  time.Duration(*warmup * float64(time.Second)),
		measure: time.Duration(*seconds * float64(time.Second)),
		setups:  3,
		outDir:  "out", // relative to the working directory, which "go run -C bench" makes this directory
	}
	// The traced pass is the first thing to shorten when time is tight: it
	// stops early once it has run for 0.6 of the measured window.
	cfg.tracedBudget = cfg.measure * 6 / 10

	switch {
	case *name != "":
		cfg.wl = workloadByName(*name)
		if cfg.wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		cfg.traced = *traced != 0
		if cfg.traced {
			cfg.setups = 1 // setup_s is an end-to-end metric; this run does not report it
		}
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printHuman(os.Stderr, res)
		return printContract(os.Stdout, res, cfg.traced)
	case *repeat > 0:
		return runRepeat(ctx, cfg, *repeat)
	}
	cfg.traced = true
	rep := newReport(cfg)
	code := 0
	for _, wl := range workloads {
		cfg.wl = wl
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		printHuman(os.Stderr, res)
		rep.add(res)
		if res.Failed > 0 {
			code = 1
		}
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}
