package stethoscope

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// metricsServer is the opt-in observability HTTP endpoint
// (WithMetricsAddr): Prometheus text exposition at /metrics, the live
// progress table as JSON at /progress, and the stdlib pprof profiling
// handlers under /debug/pprof/. It is read-only — nothing on it mutates
// the DB — and private to one DB, so two DBs in one process never mix
// registries the way the global pprof mux would.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// startMetricsServer binds addr and serves until close.
func startMetricsServer(db *DB, addr string) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: metrics endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		db.WriteMetrics(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		prog := db.Progress()
		out := make([]progressJSON, 0, len(prog))
		for _, p := range prog {
			out = append(out, progressJSON{
				ID:         p.ID,
				Label:      p.Label,
				ElapsedUs:  p.Elapsed.Microseconds(),
				Fraction:   p.Fraction(),
				InstrDone:  p.InstrDone,
				InstrTotal: p.InstrTotal,
			})
		}
		json.NewEncoder(w).Encode(out)
	})
	// The stdlib pprof handlers, on this mux instead of the process-wide
	// DefaultServeMux (which WithMetricsAddr must not silently claim).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &metricsServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go ms.srv.Serve(ln)
	return ms, nil
}

// progressJSON is the /progress wire shape.
type progressJSON struct {
	ID         int64   `json:"id"`
	Label      string  `json:"label"`
	ElapsedUs  int64   `json:"elapsed_us"`
	Fraction   float64 `json:"fraction"`
	InstrDone  int64   `json:"instr_done"`
	InstrTotal int64   `json:"instr_total"`
}

func (ms *metricsServer) addr() string { return ms.ln.Addr().String() }

func (ms *metricsServer) close() {
	ms.srv.Close()
}
