package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"stethoscope"
)

// childMain is the entry point of the re-executed binary: it hosts the
// system under test and nothing else. It reports set-up on stdout, then
// serves commands from stdin until stdin ends.
func childMain(arg string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad -role argument:", err)
		return 2
	}
	out := json.NewEncoder(os.Stdout)
	fail := func(err error) int {
		out.Encode(childReady{Err: err.Error()})
		return 1
	}
	wl := workloadByName(spec.Workload)
	if wl == nil {
		return fail(fmt.Errorf("unknown workload %q", spec.Workload))
	}
	in := bufio.NewScanner(os.Stdin)
	switch spec.Role {
	case "server":
		return serverChild(wl, spec, in, out, fail)
	case "analyze":
		return analyzeChild(spec, in, out, fail)
	}
	return fail(fmt.Errorf("unknown role %q", spec.Role))
}

// historyConfig is serve-history's trace store: segments and the size cap
// are small and the sweep frequent so that rollover and retention complete
// several cycles inside one measured window.
func historyConfig(dir string) stethoscope.HistoryConfig {
	return stethoscope.HistoryConfig{Dir: dir, MaxSegmentBytes: 1 << 20, MaxTotalBytes: 16 << 20, CompactEvery: 2 * time.Second}
}

// openDB builds the workload's database the way its server does and times
// the phases: generation (internal/tpch), and for a persisted workload the
// write and reopen (internal/batstore).
func openDB(wl *workload, sf float64, tmp string) (*stethoscope.DB, map[string]float64, error) {
	phases := map[string]float64{}
	var opts []stethoscope.Option
	if wl.history {
		opts = append(opts, stethoscope.WithHistoryConfig(historyConfig(filepath.Join(tmp, "history"))))
	}
	t := time.Now()
	db, err := stethoscope.Open(append(opts, stethoscope.WithScaleFactor(sf))...)
	if err != nil {
		return nil, nil, err
	}
	phases["tpch.load_s"] = time.Since(t).Seconds()
	if !wl.persisted {
		return db, phases, nil
	}
	dir := filepath.Join(tmp, "dataset")
	t = time.Now()
	err = db.Persist(dir)
	phases["batstore.persist_s"] = time.Since(t).Seconds()
	db.Close()
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	db, err = stethoscope.OpenPath(dir, opts...)
	phases["batstore.open_s"] = time.Since(t).Seconds()
	return db, phases, err
}

// childStats answers the "stats" command: the counters the wire protocol
// does not carry.
type childStats struct {
	HistorySegments int   `json:"history_segments"`
	Compactions     int64 `json:"compactions"`
}

func serverChild(wl *workload, spec childSpec, in *bufio.Scanner, out *json.Encoder, fail func(error) int) int {
	db, phases, err := openDB(wl, spec.SF, spec.Tmp)
	if err != nil {
		return fail(err)
	}
	defer db.Close()
	// The result cache stays off (no WithResultCache), so repeats execute.
	srv, err := db.Serve(context.Background(), "bench", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	out.Encode(childReady{Addr: srv.Addr(), Phases: phases})
	for in.Scan() {
		if strings.TrimSpace(in.Text()) != "stats" {
			continue
		}
		var st childStats
		if h := db.History(); h != nil {
			st.HistorySegments = h.Stats().Segments
			st.Compactions = db.Metrics().Value("stetho_tracestore_compactions_total")
		}
		out.Encode(st)
	}
	return 0
}
