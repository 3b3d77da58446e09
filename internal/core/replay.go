package core

import (
	"fmt"
	"time"

	"stethoscope/internal/profiler"
)

// Replay is the offline trace-replay controller: "Fast-forward, rewind,
// and pause functionality of the trace replay" plus the step-by-step
// walk-through of the offline demo. It advances a cursor through the
// trace store and drives node coloring through the render queue, exactly
// as the online mode would.
type Replay struct {
	s   *Session
	pos int // next event index to apply
	// paused gates Play-driven advancement; Step works regardless.
	paused bool
}

// Position returns the cursor (events applied so far).
func (r *Replay) Position() int { return r.pos }

// Len returns the trace length.
func (r *Replay) Len() int { return r.s.Trace.Len() }

// Pause stops Play-driven advancement.
func (r *Replay) Pause() { r.paused = true }

// Play resumes advancement.
func (r *Replay) Play() { r.paused = false }

// Step applies the next event and returns it; ok is false at the end of
// the trace. The event's node is queued for its state color; an event
// whose pc has no node colors nothing.
func (r *Replay) Step(now time.Time) (profiler.Event, bool) {
	if r.pos >= r.s.Trace.Len() {
		return profiler.Event{}, false
	}
	e := r.s.Trace.At(r.pos)
	r.pos++
	if k, ok := r.s.slot(e.PC); ok {
		r.s.Queue.Enqueue(k, string(stateColor(e)), now)
	}
	return e, true
}

// Tick advances the replay while playing: it applies every event up to
// `count` and flushes the render queue at `now`. It returns the number
// of events applied.
func (r *Replay) Tick(now time.Time, count int) int {
	if r.paused {
		r.s.Queue.Flush(now)
		return 0
	}
	applied := 0
	for applied < count {
		if _, ok := r.Step(now); !ok {
			break
		}
		applied++
	}
	r.s.Queue.Flush(now)
	return applied
}

// FastForward jumps the cursor forward by n events, applying their final
// colors immediately (bypassing the queue's pacing, as a user skipping
// ahead expects).
func (r *Replay) FastForward(n int) {
	r.jump(min(r.pos+n, r.s.Trace.Len()))
}

// Rewind moves the cursor back by n events and recomputes the display
// state from the beginning of the trace (coloring is not invertible:
// rewinding past a done event must restore the RED of its start).
func (r *Replay) Rewind(n int) {
	r.jump(max(r.pos-n, 0))
}

// SeekTo positions the cursor at an absolute event index.
func (r *Replay) SeekTo(idx int) error {
	if idx < 0 || idx > r.s.Trace.Len() {
		return fmt.Errorf("core: seek %d out of range 0..%d", idx, r.s.Trace.Len())
	}
	r.jump(idx)
	return nil
}

// stateColor is the paper's state mapping: a start event colors its
// node RED, a done event GREEN.
func stateColor(e profiler.Event) Color {
	if e.State == profiler.StateDone {
		return ColorGreen
	}
	return ColorRed
}

// jump moves the cursor to event index to and recomputes the display
// state as of the events before it, applied directly to the virtual
// space: each node takes the color of its instruction's last event. The
// render queue's pending requests belong to the old cursor and are
// dropped.
func (r *Replay) jump(to int) {
	r.s.Queue.Drop()
	r.s.clear()
	for i := 0; i < to; i++ {
		e := r.s.Trace.At(i)
		if k, ok := r.s.slot(e.PC); ok {
			r.s.Space.Shape(k).Color = string(stateColor(e))
		}
	}
	r.pos = to
}

// ColorBetween runs the pair-elision algorithm over the trace window
// between two event indexes — the offline demo's "finding costly
// instructions by coloring during trace replay between two instruction
// states".
func (r *Replay) ColorBetween(from, to int) (Coloring, error) {
	if from < 0 || to > r.s.Trace.Len() || from > to {
		return nil, fmt.Errorf("core: window [%d,%d) out of range 0..%d", from, to, r.s.Trace.Len())
	}
	window := make([]profiler.Event, 0, to-from)
	for i := from; i < to; i++ {
		window = append(window, r.s.Trace.At(i))
	}
	return PairElision(window), nil
}
