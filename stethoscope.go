package stethoscope

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/batstore"
	"stethoscope/internal/runner"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/trace"
	"stethoscope/internal/tracestore"
)

// Auto requests adaptive selection wherever a partition or worker count
// is configured (WithPartitions, WithWorkers, ExecPartitions,
// ExecWorkers, the server's SET command): the mitosis fan-out is chosen
// per query from the scanned tables' row counts and the machine's core
// count, and the dataflow worker count from the resolved fan-out. The
// choice and its reason are recorded in Result.Stats
// (Partitions/Workers/TuneReason) and in the query history's RunMeta.
// Auto is the only value below 1 that means anything: every other one
// (0, -1, ...) passed to an ExecOption clamps to 1.
const Auto = adaptive.Auto

// config collects the Open-time settings.
type config struct {
	sf          float64
	seed        uint64
	sfSet       bool            // WithScaleFactor was given explicitly
	seedSet     bool            // WithSeed was given explicitly
	dataDir     string          // non-empty: open a persisted dataset instead of generating
	exec        runner.Settings // execution defaults; ExecOptions override them per call
	history     *HistoryConfig  // nil disables the durable query history
	metricsAddr string          // non-empty: serve /metrics + pprof here
}

// Option configures Open.
type Option func(*config)

// WithScaleFactor sets the synthetic TPC-H scale factor (default 0.01).
func WithScaleFactor(sf float64) Option {
	return func(c *config) { c.sf, c.sfSet = sf, true }
}

// WithSeed sets the data generator seed (default 42), making the
// database contents reproducible.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed, c.seedSet = seed, true }
}

// WithPath opens the database from a persisted dataset directory
// (written by DB.Persist or tpchgen -persist) instead of generating
// TPC-H data: the catalog's schemas and row counts load from the
// dataset manifest, and column data streams off disk lazily as queries
// first scan it. The dataset fixes the data contents, so combining
// WithPath with WithScaleFactor or WithSeed is an error.
func WithPath(dir string) Option { return func(c *config) { c.dataDir = dir } }

// ValidateScaleFactor checks a TPC-H scale factor the way Open does: it
// must be a positive finite number. Shared with cmd/tpchgen so the CLI
// rejects out-of-range flags with the same rule instead of silently
// generating from garbage.
func ValidateScaleFactor(sf float64) error {
	if math.IsNaN(sf) || math.IsInf(sf, 0) || sf <= 0 {
		return fmt.Errorf("stethoscope: scale factor must be a positive finite number, got %g", sf)
	}
	return nil
}

// WithPartitions sets the default mitosis partition count queries are
// compiled with (default 1 — no partitioning). Pass Auto to size the
// fan-out per query from catalog row counts and the core count.
// ExecPartitions overrides it per query. Open refuses a count above the
// limit a statement may request (4096).
func WithPartitions(n int) Option { return func(c *config) { c.exec.Partitions = n } }

// WithWorkers sets the default dataflow worker count queries execute
// with (default 1 — sequential interpretation). Pass Auto to derive the
// worker count from the resolved partition fan-out and the core count.
// ExecWorkers overrides it per query. Open refuses a count above the
// limit a statement may request (256).
func WithWorkers(n int) Option { return func(c *config) { c.exec.Workers = n } }

// WithMetricsAddr serves the observability HTTP endpoint on addr
// ("127.0.0.1:0" picks a free port; see DB.MetricsAddr for the bound
// address): /metrics in Prometheus text format, /progress as a JSON
// array of in-flight queries, and the standard net/http/pprof profiling
// handlers under /debug/pprof/. The endpoint is read-only and shares
// the DB's metrics registry; omitting the option (the default) binds
// nothing.
func WithMetricsAddr(addr string) Option {
	return func(c *config) { c.metricsAddr = addr }
}

// DB is an in-process instance of the paper's whole server side: a BAT
// catalog loaded with synthetic TPC-H data, the SQL → algebra → MAL
// compiler, the optimizer pipeline, the shared compiled-plan cache, and
// the profiled MAL interpreter. One DB serves many concurrent Exec
// calls: the engine is reentrant, compiled plans are shared read-only,
// and DB.Stats reports the serving counters.
type DB struct {
	cfg      config
	cat      *storage.Catalog
	run      *runner.Runner    // the run service every Exec/Explain/Stream and server session goes through
	hist     *History          // nil when query history is disabled
	dataMeta map[string]string // provenance recorded into persisted datasets
	msrv     *metricsServer    // the optional observability HTTP endpoint
}

// Open generates the data substrate and returns a ready database.
func Open(opts ...Option) (*DB, error) {
	cfg := config{sf: 0.01, seed: 42, exec: runner.Settings{Partitions: 1, Workers: 1}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dataDir != "" && (cfg.sfSet || cfg.seedSet) {
		return nil, fmt.Errorf("stethoscope: WithPath opens a persisted dataset whose contents are fixed; WithScaleFactor/WithSeed cannot apply (regenerate with tpchgen -persist to change them)")
	}
	if err := ValidateScaleFactor(cfg.sf); err != nil {
		return nil, err
	}
	if (cfg.exec.Partitions < 1 && cfg.exec.Partitions != Auto) || (cfg.exec.Workers < 1 && cfg.exec.Workers != Auto) {
		return nil, fmt.Errorf("stethoscope: partitions and workers must be >= 1 (or Auto)")
	}
	if cfg.exec.Partitions > runner.MaxPartitions {
		return nil, fmt.Errorf("stethoscope: partitions %d exceeds the limit of %d", cfg.exec.Partitions, runner.MaxPartitions)
	}
	if cfg.exec.Workers > runner.MaxWorkers {
		return nil, fmt.Errorf("stethoscope: workers %d exceeds the limit of %d", cfg.exec.Workers, runner.MaxWorkers)
	}
	var (
		cat   *storage.Catalog
		store *batstore.Store
		meta  map[string]string
		err   error
	)
	if cfg.dataDir != "" {
		if store, err = batstore.Open(cfg.dataDir); err != nil {
			return nil, fmt.Errorf("stethoscope: %w", err)
		}
		if cat, err = store.Catalog(); err != nil {
			return nil, fmt.Errorf("stethoscope: %w", err)
		}
		meta = store.Meta()
	} else {
		cat = storage.NewCatalog()
		if err := tpch.Load(cat, tpch.Config{SF: cfg.sf, Seed: cfg.seed}); err != nil {
			return nil, fmt.Errorf("stethoscope: %w", err)
		}
		meta = map[string]string{
			"source": "tpchgen",
			"sf":     strconv.FormatFloat(cfg.sf, 'g', -1, 64),
			"seed":   strconv.FormatUint(cfg.seed, 10),
		}
	}
	db := &DB{cfg: cfg, cat: cat, dataMeta: meta}
	var hs *tracestore.Store
	if cfg.history != nil {
		if db.hist, err = OpenHistoryConfig(*cfg.history); err != nil {
			return nil, err
		}
		hs = db.hist.st
	}
	db.run = runner.New(cat, hs)
	if store != nil {
		// Column data streams off disk lazily, as queries first scan it,
		// so instrumenting after the catalog is built counts every read.
		store.Instrument(db.run.Registry)
	}
	if cfg.metricsAddr != "" {
		msrv, err := startMetricsServer(db, cfg.metricsAddr)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.msrv = msrv
	}
	return db, nil
}

// OpenPath opens a database from a persisted dataset directory written
// by DB.Persist or tpchgen -persist. The catalog comes from the
// dataset's manifest — nothing is regenerated — and column data streams
// off disk lazily, one segment at a time, as queries first touch each
// column. All other options (partitions, workers, history, metrics)
// apply exactly as with Open.
func OpenPath(dir string, opts ...Option) (*DB, error) {
	return Open(append([]Option{WithPath(dir)}, opts...)...)
}

// Persist snapshots the database's full catalog into dir as a durable
// columnar dataset: a manifest plus one segmented, checksummed,
// compressed file per column. The directory can then be reopened with
// OpenPath (or mserver -data, or queried offline) without regenerating
// TPC-H data. Persist takes the writer lock on dir and replaces any
// dataset already there; the manifest is committed last, atomically, so
// an interrupted Persist never leaves an openable half-dataset.
func (db *DB) Persist(dir string) error {
	if err := batstore.Persist(dir, db.cat, db.dataMeta, 0); err != nil {
		return fmt.Errorf("stethoscope: %w", err)
	}
	return nil
}

// DataMeta reports the provenance of the loaded dataset: generator
// scale factor and seed for generated databases, the persisted
// manifest's metadata for OpenPath databases.
func (db *DB) DataMeta() map[string]string {
	out := make(map[string]string, len(db.dataMeta))
	for k, v := range db.dataMeta {
		out[k] = v
	}
	return out
}

// Close releases the database: the metrics HTTP endpoint (when one was
// configured) stops listening, and with history enabled the trace store
// is sealed (flush + fsync) and its background compactor stopped.
func (db *DB) Close() error {
	if db.msrv != nil {
		db.msrv.close()
		db.msrv = nil
	}
	if db.hist != nil {
		return db.hist.Close()
	}
	return nil
}

// History returns the durable query-history handle, or nil when the DB
// was opened without WithHistory.
func (db *DB) History() *History { return db.hist }

// TableInfo describes one catalog table.
type TableInfo struct {
	Name string // qualified name, e.g. "sys.lineitem"
	Rows int
}

// Tables lists the catalog tables with their row counts.
func (db *DB) Tables() []TableInfo {
	names := db.cat.TableNames()
	out := make([]TableInfo, 0, len(names))
	for _, n := range names {
		rows := 0
		schema, bare := splitQualified(n)
		if t, ok := db.cat.Table(schema, bare); ok {
			rows = t.Rows()
		}
		out = append(out, TableInfo{Name: n, Rows: rows})
	}
	return out
}

// splitQualified resolves a table name into schema and bare name; names
// without a schema prefix default to sys.
func splitQualified(name string) (schema, bare string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "sys", name
}

// ExecOption overrides execution settings for a single Exec / Explain /
// Stream / Debug call.
type ExecOption func(*runner.Settings)

// ExecPartitions compiles this query with n mitosis partitions. Pass
// Auto to size the fan-out from the scanned tables and the core count.
// Stream compiles the same plan: its result streams one batch per
// non-empty partition when the result columns are packs of them.
func ExecPartitions(n int) ExecOption { return func(s *runner.Settings) { s.Partitions = n } }

// ExecWorkers executes this query, Exec and Stream alike, on n dataflow
// workers. Pass Auto to derive the worker count from the partition
// fan-out and the core count.
func ExecWorkers(n int) ExecOption { return func(s *runner.Settings) { s.Workers = n } }

// settings resolves the per-call overrides over the DB defaults. The
// runner normalizes them (Auto survives as the sentinel, anything else
// below 1 clamps to 1) before plan-cache and shared-work keys are built
// or metadata recorded — for every entry point, the server's sessions
// included: ExecPartitions(0) used to compile the partitions=1 plan
// into a second cache entry under Key{Partitions:0} and write the bogus
// 0 into the history RunMeta.
func (db *DB) settings(opts []ExecOption) runner.Settings {
	s := db.cfg.exec
	for _, o := range opts {
		o(&s)
	}
	return s
}

// prepare compiles SQL to an optimized, resolved MAL plan through the
// run service — the same flow every server session prepares through.
func (db *DB) prepare(query string, s runner.Settings) (*runner.Prepared, error) {
	p, err := db.run.Prepare(query, s)
	if err != nil {
		return nil, fmt.Errorf("stethoscope: %w", err)
	}
	return p, nil
}

// Exec compiles (static mitosis at the partition setting), optimizes,
// and executes one SQL query under the profiler, so every operator is a
// node of the plan graph. The returned Result bundles the optimized MAL
// plan, the full execution trace, the result table, and execution
// statistics. The context cancels the execution: sequential runs stop
// between instructions, dataflow runs stop dispatching work.
//
// Identical concurrent statements share work: Exec calls whose SQL and
// compile geometry match an in-flight execution attach to it and
// receive the same result without running the plan (Stats.Shared
// reports "attached"). A statement that arrives after its twin finished
// executes again: nothing caches outcomes. Shared results are
// byte-identical to an unshared execution — the sharing key includes
// everything that decides result bytes (see internal/sharedwork) and
// excludes the worker count, which never does.
func (db *DB) Exec(ctx context.Context, query string, opts ...ExecOption) (*Result, error) {
	p, err := db.prepare(query, db.settings(opts))
	if err != nil {
		return nil, err
	}
	out, via, err := db.run.Run(ctx, p, runner.RunOptions{})
	if err != nil {
		return nil, err
	}
	events := out.Events
	if via != "" {
		// The outcome stays shared with the run that produced it, and
		// Result.Events hands the slice to this call's caller, who may use
		// it on any goroutine: own a copy.
		events = out.CloneEvents()
	}
	// The Stats echo the producing run's resolved settings and history
	// id, whether or not this call was the one that ran the plan.
	return &Result{
		traceView: traceView{tstore: trace.FromEventsOwned(events)},
		Query:     query,
		Stats: Stats{
			Optimizer:    p.Opt,
			Elapsed:      out.Elapsed,
			Instructions: len(p.Plan.Instrs),
			Partitions:   out.Partitions,
			Workers:      out.Workers,
			AutoTuned:    out.AutoTuned,
			TuneReason:   out.TuneReason,
			CacheHit:     out.CacheHit,
			Instantiated: out.Instantiated,
			RunID:        out.RunID,
			Shared:       via,
		},
		prep: p,
		res:  out.Res,
	}, nil
}

// Explain compiles and optimizes the query without executing it and
// returns the MAL listing. Partition settings (including Auto) are
// normalized and resolved exactly as Exec would.
func (db *DB) Explain(query string, opts ...ExecOption) (string, error) {
	p, err := db.prepare(query, db.settings(opts))
	if err != nil {
		return "", err
	}
	return p.Plan.String(), nil
}

// DBStats is a point-in-time snapshot of the DB's serving counters, for
// in-process calls and QUERY commands of this DB's servers alike: Cache
// (plan-cache hits, misses, evictions, occupancy), InFlight (plans
// executing now), Execs (statements answered), Events (profiler events
// produced, each counted once), SharedLed and SharedAttached
// (single-flight leaders vs. executions served by attaching to one) and
// Uptime. It is re-exported like the other leaf types; the fields are
// documented on runner.Stats.
type DBStats = runner.Stats

// Stats snapshots the serving counters.
func (db *DB) Stats() DBStats { return db.run.Stats() }

// Metrics snapshots the DB's metrics registry: every counter, gauge,
// and histogram the engine scheduler, plan cache, stores, profiler
// pipeline, and servers feed. Snapshots are per-metric consistent (see
// the registry contract in DESIGN.md) and cheap enough to poll.
func (db *DB) Metrics() MetricsSnapshot { return db.run.Registry.Snapshot() }

// WriteMetrics writes the registry in the Prometheus text exposition
// format — the same payload the WithMetricsAddr endpoint and the
// METRICS wire command serve.
func (db *DB) WriteMetrics(w io.Writer) error { return db.run.Registry.WritePrometheus(w) }

// Progress snapshots the live progress of every in-flight query on
// this DB's engine (in-process Exec/Stream calls and server QUERY
// commands alike), ordered by start: instructions completed out of the
// plan's total.
func (db *DB) Progress() []QueryProgress { return db.run.Engine.Progress() }

// MetricsAddr reports the bound address of the observability HTTP
// endpoint, or "" when the DB was opened without WithMetricsAddr.
func (db *DB) MetricsAddr() string {
	if db.msrv == nil {
		return ""
	}
	return db.msrv.addr()
}

// disableMetrics detaches the engine and query-level instrumentation
// (benchmarks measure the hot path with metrics on vs off through it).
func (db *DB) disableMetrics() { db.run.DisableMetrics() }

// DumpCSV writes a catalog table as CSV with a header line. table is a
// bare name ("lineitem", resolved in the sys schema) or a qualified one
// ("sys.lineitem"). limit bounds the row count (0 dumps everything).
func (db *DB) DumpCSV(w io.Writer, table string, limit int) error {
	schema, name := splitQualified(table)
	t, ok := db.cat.Table(schema, name)
	if !ok {
		names := make([]string, 0)
		for _, ti := range db.Tables() {
			names = append(names, ti.Name)
		}
		return fmt.Errorf("stethoscope: unknown table %q; have %s", table, strings.Join(names, ", "))
	}
	names := make([]string, len(t.Columns))
	bats := make([]*storage.BAT, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
		var err error
		if bats[i], err = t.ColumnData(c.Name); err != nil {
			return fmt.Errorf("stethoscope: %w", err)
		}
	}
	rows := t.Rows()
	if limit > 0 && limit < rows {
		rows = limit
	}
	_, err := storage.WriteText(w, names, bats, rows, ',')
	return err
}
