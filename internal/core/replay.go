package core

import (
	"fmt"
	"time"

	"stethoscope/internal/dot"
	"stethoscope/internal/profiler"
	"stethoscope/internal/trace"
	"stethoscope/internal/zvtm"
)

// Replay is the offline trace-replay controller: "Fast-forward, rewind,
// and pause functionality of the trace replay" plus the step-by-step
// walk-through of the offline demo. It advances a cursor through the
// trace store and drives node coloring through the render queue, exactly
// as the online mode would.
type Replay struct {
	store *trace.Store
	queue *zvtm.RenderQueue
	pos   int // next event index to apply
	// paused gates Play-driven advancement; Step works regardless.
	paused bool
	// colored tracks nodes tinted so far, so Rewind can recompute.
	vs *zvtm.VirtualSpace
}

// NewReplay wires a trace to a virtual space through a render queue.
func NewReplay(store *trace.Store, vs *zvtm.VirtualSpace, queue *zvtm.RenderQueue) *Replay {
	return &Replay{store: store, queue: queue, vs: vs, paused: true}
}

// Position returns the cursor (events applied so far).
func (r *Replay) Position() int { return r.pos }

// Len returns the trace length.
func (r *Replay) Len() int { return r.store.Len() }

// Pause stops Play-driven advancement.
func (r *Replay) Pause() { r.paused = true }

// Play resumes advancement.
func (r *Replay) Play() { r.paused = false }

// Step applies the next event and returns it; ok is false at the end of
// the trace. start events color RED, done events color GREEN, matching
// the paper's state mapping.
func (r *Replay) Step(now time.Time) (profiler.Event, bool) {
	if r.pos >= r.store.Len() {
		return profiler.Event{}, false
	}
	e := r.store.At(r.pos)
	r.pos++
	color := ColorRed
	if e.State == profiler.StateDone {
		color = ColorGreen
	}
	r.queue.Enqueue(dot.NodeID(e.PC), string(color), now)
	return e, true
}

// Tick advances the replay while playing: it applies every event up to
// `count` and flushes the render queue at `now`. It returns the number
// of events applied.
func (r *Replay) Tick(now time.Time, count int) int {
	if r.paused {
		r.queue.Flush(now)
		return 0
	}
	applied := 0
	for applied < count {
		if _, ok := r.Step(now); !ok {
			break
		}
		applied++
	}
	r.queue.Flush(now)
	return applied
}

// FastForward jumps the cursor forward by n events, applying their final
// colors immediately (bypassing the queue's pacing, as a user skipping
// ahead expects).
func (r *Replay) FastForward(n int) {
	target := r.pos + n
	if target > r.store.Len() {
		target = r.store.Len()
	}
	r.applyRange(0, target)
	r.pos = target
}

// Rewind moves the cursor back by n events and recomputes the display
// state from the beginning of the trace (coloring is not invertible:
// rewinding past a done event must restore the RED of its start).
func (r *Replay) Rewind(n int) {
	target := r.pos - n
	if target < 0 {
		target = 0
	}
	r.applyRange(0, target)
	r.pos = target
}

// SeekTo positions the cursor at an absolute event index.
func (r *Replay) SeekTo(idx int) error {
	if idx < 0 || idx > r.store.Len() {
		return fmt.Errorf("core: seek %d out of range 0..%d", idx, r.store.Len())
	}
	r.applyRange(0, idx)
	r.pos = idx
	return nil
}

// applyRange recomputes node colors as of events [from, to) and applies
// them directly to the virtual space.
func (r *Replay) applyRange(from, to int) {
	// Reset every previously colored node.
	for _, id := range r.vs.NodeIDs() {
		r.vs.SetNodeColor(id, "")
	}
	state := map[int]Color{}
	for i := from; i < to; i++ {
		e := r.store.At(i)
		if e.State == profiler.StateDone {
			state[e.PC] = ColorGreen
		} else {
			state[e.PC] = ColorRed
		}
	}
	for pc, c := range state {
		r.vs.SetNodeColor(dot.NodeID(pc), string(c))
	}
}

// ColorBetween runs the pair-elision algorithm over the trace window
// between two event indexes — the offline demo's "finding costly
// instructions by coloring during trace replay between two instruction
// states".
func (r *Replay) ColorBetween(from, to int) (Coloring, error) {
	if from < 0 || to > r.store.Len() || from > to {
		return nil, fmt.Errorf("core: window [%d,%d) out of range 0..%d", from, to, r.store.Len())
	}
	window := make([]profiler.Event, 0, to-from)
	for i := from; i < to; i++ {
		window = append(window, r.store.At(i))
	}
	return PairElision(window), nil
}
