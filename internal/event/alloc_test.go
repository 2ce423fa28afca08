package event

import "testing"

func noopHandler(Time) {}

// The engine's schedule-and-fire cycle is the innermost loop of every
// simulation; it must not allocate in steady state. This is the allocation
// budget the perf-regression gate relies on (see DESIGN.md "Performance").
func TestZeroAllocSteadyStateFire(t *testing.T) {
	e := New()
	// Warm the node pool and heap capacity.
	for i := 0; i < 64; i++ {
		e.After(Time(i), noopHandler)
	}
	e.RunAll()

	if avg := testing.AllocsPerRun(1000, func() {
		e.After(10, noopHandler)
		e.After(5, noopHandler)
		e.Run(e.Now() + 20)
	}); avg != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per cycle, want 0", avg)
	}
}

// Cancel must also be allocation-free: the scheduler cancels a completion
// event on nearly every dispatch.
func TestZeroAllocCancel(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		e.After(Time(i), noopHandler)
	}
	e.RunAll()

	if avg := testing.AllocsPerRun(1000, func() {
		h := e.After(10, noopHandler)
		h.Cancel()
	}); avg != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects per cycle, want 0", avg)
	}
}

// Reschedule moves a pending event in place: the scheduler reprograms every
// busy core's completion on every tick through it. The loop moves the event
// earlier (the up-only sift) and later (the down-only sift).
func TestZeroAllocReschedule(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		e.After(Time(i), noopHandler)
	}
	e.RunAll()
	h := e.After(10, noopHandler)
	e.After(20, noopHandler)

	if avg := testing.AllocsPerRun(1000, func() {
		h, _ = h.Reschedule(e.Now() + 5)
		h, _ = h.Reschedule(e.Now() + 25)
	}); avg != 0 {
		t.Fatalf("reschedule allocates %.1f objects per cycle, want 0", avg)
	}
}

// Inline tick batching accounts each elided re-arm with Skip and moves the
// clock with Advance; neither may allocate.
func TestZeroAllocAdvance(t *testing.T) {
	e := New()
	e.At(1<<40, noopHandler)
	var avg float64
	e.At(0, func(now Time) {
		avg = testing.AllocsPerRun(1000, func() {
			e.Skip(1)
			e.Advance(e.Now() + 1)
		})
	})
	e.Run(1 << 41)
	if avg != 0 {
		t.Fatalf("Skip+Advance allocates %.1f objects per inline firing, want 0", avg)
	}
}
