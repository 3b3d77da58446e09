package sharedwork

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
)

func key(sql string) Key { return Key{SQL: sql, Partitions: 1, Passes: "cse"} }

func TestFlightDedupesConcurrentCallers(t *testing.T) {
	f := NewFlight()
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	want := &Outcome{Res: &engine.Result{Names: []string{"a"}}, Elapsed: 7 * time.Millisecond}

	lead := func() (*Outcome, error) {
		runs.Add(1)
		close(started)
		<-release
		return want, nil
	}

	var wg sync.WaitGroup
	leaderOut := make(chan *Outcome, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		out, err, attached, waiters := f.Do(context.Background(), key("q"), lead)
		if err != nil || attached {
			t.Errorf("leader: err=%v attached=%v", err, attached)
		}
		if waiters != 3 {
			t.Errorf("leader saw %d waiters, want 3", waiters)
		}
		leaderOut <- out
	}()
	<-started

	follower := make(chan *Outcome, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err, attached, _ := f.Do(context.Background(), key("q"), func() (*Outcome, error) {
				t.Error("follower ran the function")
				return nil, nil
			})
			if err != nil || !attached {
				t.Errorf("follower: err=%v attached=%v", err, attached)
			}
			follower <- out
		}()
	}
	// Followers must be registered before the leader finishes.
	deadline := time.After(5 * time.Second)
	for {
		if f.Attached() == 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("followers never attached")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("function ran %d times, want 1", got)
	}
	lo := <-leaderOut
	for i := 0; i < 3; i++ {
		if fo := <-follower; fo != lo {
			t.Fatalf("follower outcome %p differs from leader %p", fo, lo)
		}
	}
	if f.Led() != 1 || f.Attached() != 3 {
		t.Fatalf("counters led=%d attached=%d, want 1/3", f.Led(), f.Attached())
	}
	if f.InFlight() != 0 {
		t.Fatalf("registry not drained: %d in flight", f.InFlight())
	}
}

func TestFlightSequentialCallersAllLead(t *testing.T) {
	f := NewFlight()
	for i := 0; i < 3; i++ {
		_, err, attached, waiters := f.Do(context.Background(), key("q"), func() (*Outcome, error) {
			return &Outcome{}, nil
		})
		if err != nil || attached || waiters != 0 {
			t.Fatalf("call %d: err=%v attached=%v waiters=%d", i, err, attached, waiters)
		}
	}
	if f.Led() != 3 || f.Attached() != 0 {
		t.Fatalf("led=%d attached=%d, want 3/0 — the flight must not cache", f.Led(), f.Attached())
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	f := NewFlight()
	var runs atomic.Int64
	block := make(chan struct{})
	var wg sync.WaitGroup
	for _, k := range []Key{key("a"), key("b"), {SQL: "a", Partitions: 2}, {SQL: "a", Partitions: 1, Morsel: true}} {
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			f.Do(context.Background(), k, func() (*Outcome, error) {
				runs.Add(1)
				<-block
				return &Outcome{}, nil
			})
		}(k)
	}
	deadline := time.After(5 * time.Second)
	for runs.Load() != 4 {
		select {
		case <-deadline:
			t.Fatalf("only %d of 4 distinct keys running", runs.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(block)
	wg.Wait()
}

func TestFlightPropagatesLeaderError(t *testing.T) {
	f := NewFlight()
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	go f.Do(context.Background(), key("q"), func() (*Outcome, error) {
		close(started)
		<-release
		return nil, boom
	})
	<-started
	done := make(chan error, 1)
	go func() {
		_, err, attached, _ := f.Do(context.Background(), key("q"), func() (*Outcome, error) {
			t.Error("follower ran")
			return nil, nil
		})
		if !attached {
			t.Error("follower did not attach")
		}
		done <- err
	}()
	// Give the follower a moment to attach, then let the leader fail.
	for {
		if f.Attached() == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("follower err = %v, want boom", err)
	}
}

func TestFlightFollowerCancellation(t *testing.T) {
	f := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go f.Do(context.Background(), key("q"), func() (*Outcome, error) {
		close(started)
		<-release
		return &Outcome{}, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, attached, _ := f.Do(ctx, key("q"), func() (*Outcome, error) { return nil, nil })
	if !attached || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled follower: attached=%v err=%v", attached, err)
	}
}

func TestCloneEvents(t *testing.T) {
	o := &Outcome{}
	if o.CloneEvents() != nil {
		t.Fatal("empty outcome should clone to nil")
	}
}

func TestResultCacheHitMissEvict(t *testing.T) {
	c := NewResultCache(2, time.Minute)
	a, b, d := &Outcome{}, &Outcome{}, &Outcome{}
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key("a"), a)
	c.Put(key("b"), b)
	if got, ok := c.Get(key("a")); !ok || got != a {
		t.Fatal("miss on live entry a")
	}
	c.Put(key("d"), d) // evicts b (LRU: a was just touched)
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("evicted entry b still served")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Len != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultCacheTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewResultCache(4, 10*time.Second)
	c.SetClock(func() time.Time { return now })
	c.Put(key("q"), &Outcome{})
	if _, ok := c.Get(key("q")); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(9 * time.Second)
	if _, ok := c.Get(key("q")); !ok {
		t.Fatal("entry expired early")
	}
	// A refresh restarts the TTL.
	c.Put(key("q"), &Outcome{})
	now = now.Add(9 * time.Second)
	if _, ok := c.Get(key("q")); !ok {
		t.Fatal("refreshed entry expired early")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get(key("q")); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Len != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
}

func TestResultCachePurgeCountsInvalidations(t *testing.T) {
	c := NewResultCache(4, 0)
	c.Put(key("a"), &Outcome{})
	c.Put(key("b"), &Outcome{})
	c.Purge()
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("purged entry served")
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Len != 0 {
		t.Fatalf("stats after purge = %+v", st)
	}
}

func TestResultCacheNilSafe(t *testing.T) {
	var c *ResultCache
	c.Put(key("a"), &Outcome{})
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("nil cache hit")
	}
	c.Purge()
	if c.Len() != 0 || c.Stats() != (CacheStats{}) {
		t.Fatal("nil cache reports non-zero")
	}
	var s *Shared
	s.Instrument(metrics.NewRegistry())
}

func TestInstrumentExposesMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	sh := &Shared{Flight: NewFlight(), Cache: NewResultCache(2, time.Minute)}
	sh.Instrument(reg)
	sh.Flight.Do(context.Background(), key("q"), func() (*Outcome, error) { return &Outcome{}, nil })
	sh.Cache.Put(key("q"), &Outcome{})
	sh.Cache.Get(key("q"))
	snap := reg.Snapshot()
	if snap.Value("stetho_sharedwork_led_total") != 1 {
		t.Fatalf("led counter not wired: %d", snap.Value("stetho_sharedwork_led_total"))
	}
	if snap.Value("stetho_resultcache_hits_total") != 1 {
		t.Fatalf("hit counter not wired: %d", snap.Value("stetho_resultcache_hits_total"))
	}
	if snap.Value("stetho_resultcache_entries") != 1 || snap.Value("stetho_resultcache_capacity") != 2 {
		t.Fatal("occupancy gauges not wired")
	}
}
