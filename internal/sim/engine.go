// Package sim implements the discrete-event simulation engine: a
// monotonic virtual clock and a binary-heap event scheduler with
// cancellable, deterministically ordered events.
//
// Events scheduled for the same instant fire in scheduling order
// (FIFO), which together with the deterministic RNG streams makes every
// simulation byte-for-byte reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is an event callback. It receives the engine so it can
// schedule follow-up events.
type Handler func(e *Engine)

// Event is a scheduled callback. The zero Event is invalid; obtain
// events via Engine.Schedule*.
type Event struct {
	time    float64
	seq     uint64
	index   int // heap index, -1 once fired or cancelled
	handler Handler
	name    string
}

// Time reports the virtual time at which the event fires.
func (ev *Event) Time() float64 { return ev.time }

// Name reports the diagnostic label given at scheduling.
func (ev *Event) Name() string { return ev.name }

// Pending reports whether the event is still queued.
func (ev *Event) Pending() bool { return ev.index >= 0 }

// eventHeap orders by (time, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//lint:ignore floateq exact time ties fall through to the deterministic seq tiebreak
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is the discrete-event simulator core. Not safe for concurrent
// use; one engine per simulation goroutine.
type Engine struct {
	now     float64
	seq     uint64
	queue   eventHeap
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired reports how many events have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) }

// ScheduleAt queues h to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) ScheduleAt(t float64, name string, h Handler) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: event %q scheduled at non-finite time %v", name, t))
	}
	ev := &Event{time: t, seq: e.seq, handler: h, name: name}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleAfter queues h to run delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, name string, h Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled with negative delay %v", name, delay))
	}
	return e.ScheduleAt(e.now+delay, name, h)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	ev.handler = nil
	return true
}

// Stop makes the current Run return after the executing event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.time
	h := ev.handler
	ev.handler = nil
	e.fired++
	h(e)
	return true
}

// RunUntil executes events in order until the clock would pass horizon,
// the queue empties, or Stop is called. The clock is left at
// min(horizon, last event time); events scheduled beyond the horizon
// stay queued.
func (e *Engine) RunUntil(horizon float64) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if next.time > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run executes until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Ticker schedules h every interval seconds starting at start, until
// cancelled via the returned stop function. The handler observes the
// engine clock at each tick.
func (e *Engine) Ticker(start, interval float64, name string, h Handler) (stop func()) {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	cancelled := false
	var schedule func(t float64)
	schedule = func(t float64) {
		e.ScheduleAt(t, name, func(en *Engine) {
			if cancelled {
				return
			}
			h(en)
			if !cancelled {
				schedule(en.Now() + interval)
			}
		})
	}
	schedule(start)
	return func() { cancelled = true }
}
