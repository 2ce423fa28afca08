// Package pelt implements the per-task load tracking the HMP scheduler uses
// (the paper's Algorithm 1): a geometric-decay average of per-millisecond
// runnable time, normalized by the current clock frequency so the tracked
// load is "an absolute load value independent from the current clock
// frequency". The decay is tuned so a 1 ms contribution from 32 ms ago
// carries half the weight of the current one — the paper's "time weight",
// swept as 2x / ½x in §VI-C.
package pelt

import "math"

// Scale is the fixed-point load scale: a task running continuously at a
// core's maximum frequency converges to Scale.
const Scale = 1024

// DefaultHalfLifeMs matches the paper: load from 32 ms ago is weighted 50%.
const DefaultHalfLifeMs = 32

// Tracker tracks one task's decayed CPU load. The zero value is unusable;
// use NewTracker. Time advances in 1 ms steps via Update, matching the
// paper's "1 millisecond granularity" load history.
type Tracker struct {
	halfLife int
	decay    float64 // per-step geometric factor y, y^halfLife = 0.5
	load     float64 // current decayed average in [0, Scale]
}

// NewTracker returns a tracker with the given half-life in milliseconds.
// Non-positive values fall back to the default.
func NewTracker(halfLifeMs int) *Tracker {
	if halfLifeMs <= 0 {
		halfLifeMs = DefaultHalfLifeMs
	}
	return &Tracker{
		halfLife: halfLifeMs,
		decay:    math.Pow(0.5, 1.0/float64(halfLifeMs)),
	}
}

// HalfLifeMs returns the configured half-life.
func (t *Tracker) HalfLifeMs() int { return t.halfLife }

// Update advances one 1 ms period. ranFrac is the fraction of the period the
// task spent running (or runnable, per HMP semantics), in [0,1]; freqScale is
// current/maximum frequency of the CPU it ran on, making the contribution
// frequency-invariant. A sleeping task contributes nothing ("if a task
// enters the sleep state, its load is not updated"): its periods are
// Update(0, f) steps, which Decay applies in bulk.
func (t *Tracker) Update(ranFrac, freqScale float64) {
	if ranFrac < 0 {
		ranFrac = 0
	}
	if ranFrac > 1 {
		ranFrac = 1
	}
	if freqScale < 0 {
		freqScale = 0
	}
	if freqScale > 1 {
		freqScale = 1
	}
	contrib := Scale * ranFrac * freqScale
	t.load = t.load*t.decay + contrib*(1-t.decay)
}

// Decay advances n periods in which the task did not run: n sequential
// load = load·y + 0 steps, each bit-identical to Update(0, f) for any f.
// The scheduler uses it to catch a sleeping task's history up lazily, at its
// next read, instead of decaying it every tick. A closed form (load·yⁿ via
// math.Pow) would round differently, so the steps are taken one by one,
// until one leaves the load unchanged: from that fixed point (zero, or a
// subnormal that rounds back to itself) every further step is a no-op.
//
// The "+ 0" of a step matters only to a load of -0, which it turns into +0;
// every other load is non-negative, so the loop multiplies alone (half the
// dependent latency per step) and applies the "+ 0" once, on exit at a
// fixed point — the only way a -0 can leave the loop.
func (t *Tracker) Decay(n uint64) {
	load := t.load
	for ; n > 0; n-- {
		next := load * t.decay
		if next == load {
			load = next + 0
			break
		}
		load = next
	}
	t.load = load
}

// Load returns the tracked load in [0, Scale].
func (t *Tracker) Load() int { return int(t.load + 0.5) }

// LoadF returns the unrounded load.
func (t *Tracker) LoadF() float64 { return t.load }

// Set forces the load value (used when forking tasks inherit parent load).
func (t *Tracker) Set(load float64) {
	if load < 0 {
		load = 0
	}
	if load > Scale {
		load = Scale
	}
	t.load = load
}
