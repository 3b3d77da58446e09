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
// key is built, Auto survives, and a morsel size without morsel mode is
// ignored.
func TestPrepareNormalizesOnce(t *testing.T) {
	r := newRunner(t, Config{})
	base, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Settings{
		{Partitions: 0, Workers: 0},
		{Partitions: -1, Workers: -1},
		{Partitions: -7, Workers: -7, MorselRows: 512},
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
	auto, err := r.Prepare(query, Settings{Partitions: adaptive.Auto, Workers: adaptive.Auto, Morsel: true, MorselRows: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.AutoTuned || auto.key.Partitions != adaptive.Auto || !auto.key.Morsel || auto.MorselRows != 1 {
		t.Errorf("Prepare(auto, morsel 0) = %+v key %+v, want Auto kept in the key and morsel rows clamped to 1", auto, auto.key)
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

// TestMorselSizeIsResultIdentityOnly: the morsel size is a runtime
// option, so two sizes share one compiled plan, but it shapes the
// result bytes, so they are two run keys and the result cache never
// serves one for the other.
func TestMorselSizeIsResultIdentityOnly(t *testing.T) {
	r := newRunner(t, Config{ResultCacheSize: 4})
	ctx := context.Background()
	small, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1, Morsel: true, MorselRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	large, err := r.Prepare(query, Settings{Partitions: 1, Workers: 1, Morsel: true, MorselRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats().Cache; st.Len != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("plan cache = %+v, want one entry compiled once and hit once", st)
	}
	if small.Plan != large.Plan || !large.PlanCached {
		t.Error("a different morsel size recompiled the plan")
	}
	if small.key == large.key || small.key.MorselRows != 512 || large.key.MorselRows != 1024 {
		t.Errorf("run keys %+v and %+v, want them to differ in MorselRows alone", small.key, large.key)
	}
	first, via, err := r.Run(ctx, small, RunOptions{})
	if err != nil || via != "" {
		t.Fatalf("morsel 512: via %q err %v", via, err)
	}
	other, via, err := r.Run(ctx, large, RunOptions{})
	if err != nil || via != "" {
		t.Fatalf("morsel 1024 after a cached morsel 512 run: via %q err %v, want its own execution", via, err)
	}
	if other.Res == first.Res || other.MorselRows != 1024 {
		t.Error("morsel 1024 was answered with the morsel 512 outcome")
	}
	if again, via, _ := r.Run(ctx, small, RunOptions{}); via != "resultcache" || again.Res != first.Res {
		t.Errorf("morsel 512 repeat: via %q, want its own cached outcome", via)
	}
	if st := r.Stats().ResultCache; st.Len != 2 {
		t.Errorf("result cache holds %d entries, want one per morsel size", st.Len)
	}
}

// TestRunKeyDerivesFromCompileKey: Prepare never lists the key fields
// itself — the run key is the planner's compile key plus the resolved
// morsel size, under every way a setting can be resolved.
func TestRunKeyDerivesFromCompileKey(t *testing.T) {
	r := newRunner(t, Config{})
	for name, s := range map[string]Settings{
		"static":          {Partitions: 4, Workers: 2},
		"explicit-morsel": {Partitions: 1, Workers: 2, Morsel: true, MorselRows: 256},
		"auto-morsel":     {Partitions: 1, Workers: 2, Morsel: true, MorselRows: adaptive.Auto},
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
		if c.Key.MorselRows != 0 {
			t.Errorf("%s: compile key carries morsel rows %d; the size must not recompile", name, c.Key.MorselRows)
		}
		if s.Morsel == (p.MorselRows == 0) {
			t.Errorf("%s: resolved morsel rows %d", name, p.MorselRows)
		}
		want := c.Key
		want.MorselRows = p.MorselRows
		if p.key != want {
			t.Errorf("%s: run key %+v, want compile key + morsel rows %+v", name, p.key, want)
		}
	}
}
