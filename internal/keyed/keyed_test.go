package keyed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stethoscope/internal/metrics"
)

// key is shaped like the statement key the serving layer instantiates
// the substrate with: a flat comparable struct.
type key struct {
	SQL        string
	Partitions int
}

func k(sql string) key { return key{SQL: sql, Partitions: 1} }

func TestLRU(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		run      func(t *testing.T, c *LRU[key, string])
	}{
		{"get-put-stats", 4, func(t *testing.T, c *LRU[key, string]) {
			if _, ok := c.Get(k("a")); ok {
				t.Fatal("hit on empty cache")
			}
			c.Put(k("a"), "A")
			if v, ok := c.Get(k("a")); !ok || v != "A" {
				t.Fatalf("Get(a) = %q, %v", v, ok)
			}
			if _, ok := c.Get(key{SQL: "a", Partitions: 8}); ok {
				t.Fatal("every key field must take part in the lookup")
			}
			want := Stats{Hits: 1, Misses: 2, Len: 1, Capacity: 4}
			if st := c.Stats(); st != want {
				t.Fatalf("stats = %+v, want %+v", st, want)
			}
		}},
		{"lru-order", 3, func(t *testing.T, c *LRU[key, string]) {
			for _, q := range []string{"a", "b", "c"} {
				c.Put(k(q), q)
			}
			c.Get(k("a")) // b becomes least recently used
			c.Put(k("d"), "d")
			if _, ok := c.Get(k("b")); ok {
				t.Fatal("b should have been evicted")
			}
			for _, q := range []string{"a", "c", "d"} {
				if _, ok := c.Get(k(q)); !ok {
					t.Fatalf("%s unexpectedly evicted", q)
				}
			}
			if st := c.Stats(); st.Evictions != 1 || st.Len != 3 {
				t.Fatalf("stats = %+v", st)
			}
			if ks := c.Keys(); len(ks) != 3 || ks[0] != k("d") || ks[2] != k("a") {
				t.Fatalf("keys = %v, want most recently used first", ks)
			}
		}},
		{"refresh-does-not-grow", 2, func(t *testing.T, c *LRU[key, string]) {
			c.Put(k("a"), "a1")
			c.Put(k("a"), "a2")
			if v, _ := c.Get(k("a")); v != "a2" || c.Len() != 1 {
				t.Fatalf("after refresh: value %q len %d", v, c.Len())
			}
			if st := c.Stats(); st.Evictions != 0 {
				t.Fatalf("refresh must not evict: %+v", st)
			}
		}},
		{"capacity-clamp", 0, func(t *testing.T, c *LRU[key, string]) {
			c.Put(k("a"), "a")
			c.Put(k("b"), "b")
			if st := c.Stats(); st.Len != 1 || st.Capacity != 1 {
				t.Fatalf("stats = %+v, want capacity clamped to 1", st)
			}
		}},
		{"peek-has-no-side-effects", 2, func(t *testing.T, c *LRU[key, string]) {
			c.Put(k("a"), "a")
			c.Put(k("b"), "b")
			if v, ok := c.Peek(k("a")); !ok || v != "a" {
				t.Fatalf("Peek(a) = %q, %v", v, ok)
			}
			if _, ok := c.Peek(k("z")); ok {
				t.Fatal("Peek hit on an absent key")
			}
			c.Put(k("c"), "c") // a was not promoted, so it is the one evicted
			if _, ok := c.Peek(k("a")); ok {
				t.Fatal("Peek promoted the entry")
			}
			if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Len != 2 {
				t.Fatalf("Peek moved a counter or removed an entry: %+v", st)
			}
		}},
		{"instrument", 2, func(t *testing.T, c *LRU[key, string]) {
			reg := metrics.NewRegistry()
			c.Instrument(reg, "x")
			c.Instrument(nil, "x")
			c.Put(k("a"), "a")
			c.Get(k("a"))
			c.Get(k("b"))
			snap := reg.Snapshot()
			for name, want := range map[string]int64{"x_hits_total": 1, "x_misses_total": 1, "x_entries": 1, "x_capacity": 2} {
				if got := snap.Value(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("Stats and the registry disagree: %+v", st)
			}
		}},
		{"concurrent", 16, func(t *testing.T, c *LRU[key, string]) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						q := k(fmt.Sprintf("q%d", (g+i)%32))
						if _, ok := c.Get(q); !ok {
							c.Put(q, q.SQL)
						}
					}
				}(g)
			}
			wg.Wait()
			if st := c.Stats(); st.Len > 16 || st.Hits+st.Misses != 8*200 {
				t.Fatalf("overflowed or lost gets: %+v", st)
			}
		}},
	}
	// Each case runs under the name of the LRU's one shape: no TTL, so an
	// entry leaves only by eviction or replacement.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("no-ttl", func(t *testing.T) { tc.run(t, NewLRU[key, string](tc.capacity)) })
		})
	}
}

func TestLRUNilSafe(t *testing.T) {
	var c *LRU[key, string]
	c.Put(k("a"), "a")
	if _, ok := c.Get(k("a")); ok {
		t.Fatal("nil cache hit")
	}
	if _, ok := c.Peek(k("a")); ok {
		t.Fatal("nil cache peek hit")
	}
	c.Instrument(metrics.NewRegistry(), "x")
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache reports non-zero")
	}
}

// flightShapes are the two ways the Flight is used: followers that wait
// under their own cancelable ctx (the run flight) and followers that
// wait under context.Background() (the compile flight).
var flightShapes = []struct {
	name     string
	follower func() (context.Context, context.CancelFunc)
}{
	{"ctx-follower", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
	{"background-follower", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }},
}

// leader starts a Do whose work blocks until release is closed, and
// returns once it is running.
func leader(t *testing.T, f *Flight[key, string], key key, val string, err error) (release chan struct{}, done chan int) {
	t.Helper()
	release, done = make(chan struct{}), make(chan int, 1)
	started := make(chan struct{})
	go func() {
		got, gotErr, attached, waiters := f.Do(context.Background(), key, func() (string, error) {
			close(started)
			<-release
			return val, err
		})
		if got != val || gotErr != err || attached {
			t.Errorf("leader: %q, %v, attached=%v", got, gotErr, attached)
		}
		done <- waiters
	}()
	<-started
	return release, done
}

// awaitAttached blocks until n followers have attached to a leader.
func awaitAttached(t *testing.T, f *Flight[key, string], n int64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for f.Attached() != n {
		select {
		case <-deadline:
			t.Fatalf("%d of %d followers attached", f.Attached(), n)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestFlight(t *testing.T) {
	type followerCtx = func() (context.Context, context.CancelFunc)
	boom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T, f *Flight[key, string], follower followerCtx)
	}{
		{"dedupe-and-waiters", func(t *testing.T, f *Flight[key, string], follower followerCtx) {
			release, done := leader(t, f, k("q"), "v", nil)
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := follower()
					defer cancel()
					v, err, attached, waiters := f.Do(ctx, k("q"), func() (string, error) {
						t.Error("follower ran the work")
						return "", nil
					})
					if v != "v" || err != nil || !attached || waiters != 0 {
						t.Errorf("follower: %q, %v, attached=%v waiters=%d", v, err, attached, waiters)
					}
				}()
			}
			awaitAttached(t, f, 3)
			if f.InFlight() != 1 {
				t.Errorf("InFlight = %d while the leader runs", f.InFlight())
			}
			close(release)
			wg.Wait()
			if waiters := <-done; waiters != 3 {
				t.Errorf("leader saw %d waiters, want 3", waiters)
			}
			if f.Led() != 1 || f.Attached() != 3 || f.InFlight() != 0 {
				t.Fatalf("led=%d attached=%d inflight=%d", f.Led(), f.Attached(), f.InFlight())
			}
		}},
		{"sequential-callers-all-lead", func(t *testing.T, f *Flight[key, string], follower followerCtx) {
			for i := 0; i < 3; i++ {
				ctx, cancel := follower()
				_, err, attached, waiters := f.Do(ctx, k("q"), func() (string, error) { return "v", nil })
				cancel()
				if err != nil || attached || waiters != 0 {
					t.Fatalf("call %d: err=%v attached=%v waiters=%d", i, err, attached, waiters)
				}
			}
			if f.Led() != 3 || f.Attached() != 0 {
				t.Fatalf("led=%d attached=%d, want 3/0 — the flight must not cache", f.Led(), f.Attached())
			}
		}},
		{"distinct-keys", func(t *testing.T, f *Flight[key, string], _ followerCtx) {
			var release []chan struct{}
			for _, key := range []key{k("a"), k("b"), {SQL: "a", Partitions: 2}} {
				r, _ := leader(t, f, key, "v", nil) // returns only once running
				release = append(release, r)
			}
			if f.InFlight() != 3 || f.Led() != 3 {
				t.Fatalf("inflight=%d led=%d, want 3 independent leaders", f.InFlight(), f.Led())
			}
			for _, r := range release {
				close(r)
			}
		}},
		{"leader-error-propagates", func(t *testing.T, f *Flight[key, string], follower followerCtx) {
			release, _ := leader(t, f, k("q"), "", boom)
			got := make(chan error, 1)
			go func() {
				ctx, cancel := follower()
				defer cancel()
				_, err, attached, _ := f.Do(ctx, k("q"), func() (string, error) { return "", nil })
				if !attached {
					t.Error("follower did not attach")
				}
				got <- err
			}()
			awaitAttached(t, f, 1)
			close(release)
			if err := <-got; !errors.Is(err, boom) {
				t.Fatalf("follower err = %v, want boom", err)
			}
		}},
		// A follower leaves on its own ctx; one waiting under
		// context.Background() has no way out but the leader's outcome.
		{"follower-cancellation", func(t *testing.T, f *Flight[key, string], follower followerCtx) {
			release, done := leader(t, f, k("q"), "v", nil)
			ctx, cancel := follower()
			cancelable := ctx.Done() != nil
			got := make(chan error, 1)
			go func() {
				_, err, attached, _ := f.Do(ctx, k("q"), func() (string, error) { return "", nil })
				if !attached {
					t.Error("follower did not attach")
				}
				got <- err
			}()
			awaitAttached(t, f, 1)
			cancel()
			if cancelable {
				if err := <-got; !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled follower: err=%v", err)
				}
			}
			close(release)
			if !cancelable {
				if err := <-got; err != nil {
					t.Fatalf("background follower: err=%v", err)
				}
			}
			if waiters := <-done; waiters != 1 {
				t.Errorf("leader saw %d waiters, want 1 (a departed follower still counts)", waiters)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range flightShapes {
				t.Run(shape.name, func(t *testing.T) { tc.run(t, NewFlight[key, string](), shape.follower) })
			}
		})
	}
}

// TestFlightNilRunsSolo: a nil flight runs every call itself, which is
// how a Planner without a compile flight behaves.
func TestFlightNilRunsSolo(t *testing.T) {
	var f *Flight[key, string]
	var runs atomic.Int64
	for i := 0; i < 3; i++ {
		v, err, attached, waiters := f.Do(context.Background(), k("q"), func() (string, error) {
			runs.Add(1)
			return "v", nil
		})
		if v != "v" || err != nil || attached || waiters != 0 {
			t.Fatalf("nil flight: %q, %v, attached=%v waiters=%d", v, err, attached, waiters)
		}
	}
	if runs.Load() != 3 {
		t.Fatalf("ran %d times, want 3", runs.Load())
	}
	f.Instrument(metrics.NewRegistry(), "x")
}

func TestFlightInstrument(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFlight[key, string]()
	f.Instrument(reg, "x")
	f.Do(context.Background(), k("q"), func() (string, error) { return "", nil })
	snap := reg.Snapshot()
	if snap.Value("x_led_total") != 1 || snap.Value("x_attached_total") != 0 || snap.Value("x_inflight") != 0 {
		t.Fatalf("led=%d attached=%d inflight=%d", snap.Value("x_led_total"), snap.Value("x_attached_total"), snap.Value("x_inflight"))
	}
}
