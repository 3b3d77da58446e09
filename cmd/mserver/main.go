// Command mserver runs the reproduction's MonetDB-like database server:
// it loads a synthetic TPC-H catalog and serves the Stethoscope protocol
// over TCP (queries, EXPLAIN, dot export, profiler UDP streaming).
//
// Usage:
//
//	mserver -addr 127.0.0.1:50000 -sf 0.01 -name demo
//	mserver -addr 127.0.0.1:50000 -data /var/lib/stetho/sf01
//
// With -data the server opens a dataset persisted by tpchgen -persist
// (or DB.Persist) instead of regenerating: startup reads only the
// manifest, and columns stream off disk as queries first scan them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"stethoscope"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:50000", "TCP listen address")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	seed := flag.Uint64("seed", 42, "data generator seed")
	data := flag.String("data", "", "open this persisted dataset directory instead of generating (-sf/-seed must be left default)")
	name := flag.String("name", "mserver", "server name announced to clients")
	metricsAddr := flag.String("metrics-addr", "", "optional HTTP observability endpoint (Prometheus /metrics, JSON /progress, /debug/pprof)")
	flag.Parse()

	var (
		db  *stethoscope.DB
		err error
	)
	var extra []stethoscope.Option
	if *metricsAddr != "" {
		extra = append(extra, stethoscope.WithMetricsAddr(*metricsAddr))
	}
	if *data != "" {
		log.Printf("opening persisted dataset %s ...", *data)
		opts := extra
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "sf" || f.Name == "seed" {
				// Let Open report the conflict instead of silently
				// ignoring the flag.
				if f.Name == "sf" {
					opts = append(opts, stethoscope.WithScaleFactor(*sf))
				} else {
					opts = append(opts, stethoscope.WithSeed(*seed))
				}
			}
		})
		db, err = stethoscope.OpenPath(*data, opts...)
	} else {
		log.Printf("generating TPC-H data at SF=%g ...", *sf)
		opts := append([]stethoscope.Option{stethoscope.WithScaleFactor(*sf), stethoscope.WithSeed(*seed)}, extra...)
		db, err = stethoscope.Open(opts...)
	}
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	if *metricsAddr != "" {
		log.Printf("observability endpoint on http://%s/metrics (and /progress, /debug/pprof/)", db.MetricsAddr())
	}
	for _, t := range db.Tables() {
		log.Printf("  %-14s %8d rows", t.Name, t.Rows)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := db.Serve(ctx, *name, *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("mserver %q listening on %s\n", *name, srv.Addr())
	fmt.Println("protocol: SET partitions|workers <n|auto> / SET resultcache on|off / TRACE udpaddr / FILTER ... / " +
		"EXPLAIN sql / ALGEBRA sql / DOT sql / QUERY sql / HISTORY LIST|TOP|INFO|TRACE|DOT|DIFF ... / TABLES / STATS / METRICS / PROGRESS / QUIT")

	<-ctx.Done()
	log.Println("shutting down")
	srv.Close()
}
