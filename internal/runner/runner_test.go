package runner

import (
	"context"
	"testing"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/profiler"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
)

const query = "select l_tax from lineitem where l_partkey=1"

func newRunner(t *testing.T, cfg Config) *Runner {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: 0.001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return New(cat, cfg)
}

// TestPrepareNormalizesOnce: out-of-range settings — including -1,
// which used to collide with the Auto sentinel — clamp to 1 before any
// key is built, Auto survives, and only morsel mode gets a morsel size.
func TestPrepareNormalizesOnce(t *testing.T) {
	r := newRunner(t, Config{})
	base, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Settings{
		{Partitions: 0, Workers: 0},
		{Partitions: -1, Workers: -1},
		{Partitions: -7, Workers: -7},
	} {
		p, err := r.Prepare(query, s)
		if err != nil {
			t.Fatal(err)
		}
		if p.key != base.key || p.Partitions != 1 || p.Workers != 1 || p.MorselRows != 0 || p.AutoTuned {
			t.Errorf("Prepare(%+v) = key %+v partitions %d workers %d morsel %d auto %t, want the 1/1 static plan",
				s, p.key, p.Partitions, p.Workers, p.MorselRows, p.AutoTuned)
		}
	}
	if st := r.Stats().Cache; st.Len != 1 {
		t.Errorf("plan cache holds %d entries, want 1 (out-of-range settings aliased a key)", st.Len)
	}
	auto, err := r.Prepare(query, Settings{Partitions: adaptive.Auto, Workers: adaptive.Auto, Morsel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.AutoTuned || auto.key.Partitions != adaptive.Auto || !auto.key.Morsel || auto.MorselRows < adaptive.MinRowsPerPartition {
		t.Errorf("Prepare(auto, morsel) = %+v key %+v, want Auto kept in the key and an auto-sized morsel", auto, auto.key)
	}
}

// TestObservedRunBypassesGate: a run with private sinks executes even
// when a cached outcome exists, feeds its sinks the trace, and neither
// reads nor fills the result cache; an unobserved repeat is served from
// it.
func TestObservedRunBypassesGate(t *testing.T) {
	r := newRunner(t, Config{ResultCacheSize: 4})
	ctx := context.Background()
	p, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, via, err := r.Run(ctx, p, RunOptions{})
	if err != nil || via != "" {
		t.Fatalf("first run: via %q err %v", via, err)
	}
	seen := 0
	sink := profiler.SinkFunc(func(profiler.Event) { seen++ })
	out, via, err := r.Run(ctx, p, RunOptions{Sinks: []profiler.Sink{sink}})
	if err != nil || via != "" {
		t.Fatalf("observed run: via %q err %v", via, err)
	}
	if seen == 0 || seen != len(out.Events) {
		t.Errorf("private sink saw %d events, run produced %d", seen, len(out.Events))
	}
	if _, via, _ = r.Run(ctx, p, RunOptions{NoResultCache: true}); via != "" {
		t.Errorf("NoResultCache run served via %q", via)
	}
	cached, via, err := r.Run(ctx, p, RunOptions{})
	if err != nil || via != "resultcache" {
		t.Fatalf("repeat: via %q err %v, want resultcache", via, err)
	}
	if cached.Res != first.Res {
		t.Error("cached outcome is not the first run's")
	}
	if len(first.Events) == 0 || &first.Events[0] == &cached.Events[0] {
		t.Error("the leader's events alias the cached outcome's")
	}
	st := r.Stats()
	if st.Execs != 4 || st.SharedLed != 2 || st.Events != int64(3*len(out.Events)) {
		t.Errorf("Stats = %+v, want 4 execs, 2 led, 3 executions' events", st)
	}
}

// TestRunKeyDerivesFromCompileKey: Prepare never lists the key fields
// itself — a statement runs under the key it was compiled under, under
// every way a setting can be resolved, and only morsel compilations get
// a morsel size.
func TestRunKeyDerivesFromCompileKey(t *testing.T) {
	r := newRunner(t, Config{})
	for name, s := range map[string]Settings{
		"static":          {Partitions: 4, Workers: 2},
		"morsel":          {Partitions: 1, Workers: 2, Morsel: true},
		"auto-partitions": {Partitions: adaptive.Auto, Workers: adaptive.Auto},
	} {
		p, err := r.Prepare(query, s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.Planner.Compile(query, s.Partitions, s.Morsel)
		if err != nil {
			t.Fatal(err)
		}
		if s.Morsel == (p.MorselRows == 0) {
			t.Errorf("%s: resolved morsel rows %d", name, p.MorselRows)
		}
		if p.key != c.Key {
			t.Errorf("%s: run key %+v, want the compile key %+v", name, p.key, c.Key)
		}
	}
}
