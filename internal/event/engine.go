// Package event provides the discrete-event simulation substrate used by the
// biglittle platform simulator: a monotonic simulated clock, a pooled 4-ary
// heap event queue with stable FIFO ordering for simultaneous events, and
// cancellable event handles.
//
// All simulated components (scheduler ticks, governor sampling, task
// completions, workload wakeups, metric samplers) are driven by a single
// Engine so that every interleaving is deterministic for a given seed.
//
// The engine is the innermost loop of every simulation, so it is built to do
// zero heap allocations per scheduled-and-fired event in steady state: event
// records live on an engine-owned free list and the priority queue is a flat
// slice of pointer-free entries (a 4-ary heap — shallower than a binary heap
// and with all four children of a node on one cache line). Cancelled events
// are removed from the queue eagerly rather than occupying a slot until their
// fire time would have arrived.
package event

import "fmt"

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Milliseconds returns t as a floating-point millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}

// Handler is a callback invoked when an event fires. The engine passes the
// firing time, which equals the engine's current time during the call.
type Handler func(now Time)

// node is a pooled event record. Nodes are owned by the engine's nodes slab
// and recycled through the free list; gen distinguishes successive
// occupancies of the same slot so stale Handles are harmless.
type node struct {
	fn    Handler
	index int32 // heap index; -1 while on the free list or firing
	gen   uint32
}

// entry is one heap element. It carries the ordering key inline so the sift
// paths compare without touching the node slab, and holds no pointers so
// sifting stays free of GC write barriers.
type entry struct {
	at   Time
	seq  uint64
	node int32
}

// Handle refers to a scheduled event. The zero Handle is valid and refers to
// no event. Handles are small values: copy them freely. A Handle left over
// after its event fired (or was cancelled) is inert — Cancel on it is a
// no-op, even though the engine may have recycled the underlying record for
// a new event.
type Handle struct {
	e   *Engine
	at  Time
	id  int32
	gen uint32
}

// At returns the time the event was scheduled to fire.
func (h Handle) At() Time { return h.at }

// Pending reports whether the event is still queued: it has neither fired
// nor been cancelled.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.nodes[h.id].gen == h.gen
}

// Cancel removes a pending event from the queue and reports whether it did.
// Cancelling an event that has already fired or been cancelled is a no-op
// returning false. Cancel is safe to call from inside handlers, including
// the cancelled event's own.
func (h Handle) Cancel() bool {
	if h.e == nil {
		return false
	}
	n := &h.e.nodes[h.id]
	if n.gen != h.gen || n.index < 0 {
		return false
	}
	h.e.removeAt(int(n.index))
	h.e.recycle(h.id, n)
	return true
}

// Reschedule moves a pending event to fire at at instead, keeping its
// handler, and returns the updated Handle and true. The event gets a fresh
// scheduling sequence number, so its ordering key is exactly the one
// Cancel followed by At would give it — without the free-list round trip
// and the remove/re-insert pair of heap sifts. The fresh seq is the largest
// ever issued, so the key can only grow unless at moved earlier: a later or
// equal time sifts down only, an earlier one up only, and the heap ends up
// exactly as a down-then-up pair would leave it. Rescheduling into the past
// panics, as At does. On an event that already fired or was cancelled it
// returns h and false, and the caller schedules afresh.
func (h Handle) Reschedule(at Time) (Handle, bool) {
	if h.e == nil {
		return h, false
	}
	e := h.e
	n := &e.nodes[h.id]
	if n.gen != h.gen || n.index < 0 {
		return h, false
	}
	if at < e.now {
		panic(fmt.Sprintf("event: rescheduling at %v before now %v", at, e.now))
	}
	i := int(n.index)
	earlier := at < e.heap[i].at
	e.heap[i].at = at
	e.heap[i].seq = e.seq
	e.seq++
	switch {
	case e.eager:
		e.siftDown(i)
		e.siftUp(int(n.index))
	case earlier:
		e.siftUp(i)
	default:
		e.siftDown(i)
	}
	h.at = at
	return h, true
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	heap    []entry
	nodes   []node
	free    []int32
	stopped bool
	// until is the horizon: Run's end, the firing event's own time under
	// Step and RunAll, Now after Stop. No event after it fires before the
	// caller regains control, so NextAt caps at it and tick elision never
	// reaches past a pause point.
	until Time
	// eager turns off every shortcut (see Eager).
	eager bool
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events. Cancelled events are
// removed immediately, so they never count.
func (e *Engine) Pending() int { return len(e.heap) }

// Fired returns the number of events that have fired so far, including the
// periodic firings a handler accounted with Skip instead of popping them
// (the scheduler's elided and inline ticks, and the sampler and governor
// firings a dormant tick replays). Together with Scheduled it fingerprints
// the engine's progress: two deterministic runs that have processed the
// same event sequence report the same counters, whatever shortcuts they
// took.
func (e *Engine) Fired() uint64 { return e.fired }

// Scheduled returns the number of events ever scheduled (including ones
// later cancelled; cancellation does not rewind the sequence counter).
func (e *Engine) Scheduled() uint64 { return e.seq }

// alloc takes a node from the free list, growing the slab when empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.nodes = append(e.nodes, node{index: -1})
	return int32(len(e.nodes) - 1)
}

// recycle returns a fired or cancelled node to the free list, bumping its
// generation so outstanding Handles to the old occupancy go inert.
func (e *Engine) recycle(id int32, n *node) {
	n.gen++
	n.fn = nil
	n.index = -1
	e.free = append(e.free, id)
}

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it indicates a simulator bug, not a recoverable condition.
func (e *Engine) At(at Time, fn Handler) Handle {
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", at, e.now))
	}
	id := e.alloc()
	n := &e.nodes[id]
	n.fn = fn
	seq := e.seq
	e.seq++
	e.heap = append(e.heap, entry{at: at, seq: seq, node: id})
	e.siftUp(len(e.heap) - 1)
	return Handle{e: e, at: at, id: id, gen: n.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn Handler) Handle { return e.At(e.now+d, fn) }

// Stop makes Run return after the currently-firing event completes. It also
// clamps the horizon to Now, so nothing may be elided past the stop.
func (e *Engine) Stop() {
	e.stopped = true
	e.until = e.now
}

// Eager turns off every shortcut the engine offers its handlers: NextAt
// reports Now, so no periodic handler elides, batches or replays a firing,
// Reschedule sifts both ways, and Shortcuts reports false to the handlers'
// own (the scheduler then syncs idle cores and decays sleeping loads every
// tick). The run it leaves is the plain event-by-event reference the
// equivalence tests compare the shortcuts against; nothing else sets it.
func (e *Engine) Eager() { e.eager = true }

// Shortcuts reports whether handlers may defer work an eager run does at
// once (false on an Eager engine).
func (e *Engine) Shortcuts() bool { return !e.eager }

// NextAt returns the time of the earliest pending event, capped at the
// current horizon + 1: the end of the running Run (or Now outside one, or
// after Stop). A periodic handler that finds nothing to do may elide its
// own firings strictly before NextAt — no other event can fire, and no
// pause point can fall, in between. On an Eager engine it returns Now.
func (e *Engine) NextAt() Time {
	if e.eager {
		return e.now
	}
	limit := e.until + 1
	if len(e.heap) > 0 && e.heap[0].at < limit {
		return e.heap[0].at
	}
	return limit
}

// Skip accounts for n elided event firings: each would have fired once and
// scheduled its successor once, so both the sequence and the fired counters
// advance by n. Every event scheduled afterwards then gets the same (at,
// seq) ordering key it would have had if the elided events had really
// fired, which keeps the firing order and the Fired/Scheduled fingerprint
// identical to an eager run.
func (e *Engine) Skip(n uint64) {
	e.seq += n
	e.fired += n
}

// Advance moves the clock to at from inside a handler that runs the next
// firing of its own periodic event inline instead of re-arming it (the
// caller accounts the re-arm with Skip). It panics unless now <= at <
// NextAt(): nothing else may be due at or before at, so the inline firing
// sees the clock, the queue and the horizon an eager run would.
func (e *Engine) Advance(at Time) {
	if at < e.now || at >= e.NextAt() {
		panic(fmt.Sprintf("event: advancing to %v outside [now %v, next %v)", at, e.now, e.NextAt()))
	}
	e.now = at
}

// less orders entries by time, then scheduling sequence (FIFO among
// equal-time events). seq is unique, so this is a total order and the firing
// sequence is independent of the heap's internal arrangement.
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const arity = 4

// siftUp restores the heap property from slot i toward the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !ent.less(h[p]) {
			break
		}
		h[i] = h[p]
		e.nodes[h[i].node].index = int32(i)
		i = p
	}
	h[i] = ent
	e.nodes[ent.node].index = int32(i)
}

// siftDown restores the heap property from slot i toward the leaves.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ent := h[i]
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].less(h[min]) {
				min = c
			}
		}
		if !h[min].less(ent) {
			break
		}
		h[i] = h[min]
		e.nodes[h[i].node].index = int32(i)
		i = min
	}
	h[i] = ent
	e.nodes[ent.node].index = int32(i)
}

// removeAt deletes the heap entry at index i, preserving the heap property.
func (e *Engine) removeAt(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap = e.heap[:last]
		// The moved entry may need to go either way relative to its new
		// neighbourhood.
		e.siftDown(i)
		e.siftUp(i)
	} else {
		e.heap = e.heap[:last]
	}
}

// popMin removes the earliest entry, recycles its node, and returns the
// handler and fire time. The caller must have checked len(e.heap) > 0.
func (e *Engine) popMin() (Handler, Time) {
	root := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0) // the root can only move down
	}
	id := root.node
	n := &e.nodes[id]
	fn := n.fn
	e.recycle(id, n)
	e.fired++
	return fn, root.at
}

// Step fires the single earliest pending event and returns true, or returns
// false if no events remain. The horizon is the event's own time, so a
// stepped handler elides nothing.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	fn, at := e.popMin()
	e.now = at
	e.until = at
	fn(at)
	return true
}

// Run fires events in order until no events remain, the clock would pass
// until, or Stop is called. Events scheduled exactly at until do fire.
// On return the clock is advanced to until if the run exhausted the horizon,
// or to the last fired event otherwise.
func (e *Engine) Run(until Time) {
	e.stopped = false
	e.until = until
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= until {
		fn, at := e.popMin()
		e.now = at
		fn(at)
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll fires events until the queue is empty or Stop is called. It has no
// horizon beyond each firing event's own time, so handlers elide nothing.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 {
		fn, at := e.popMin()
		e.now = at
		e.until = at
		fn(at)
	}
}
