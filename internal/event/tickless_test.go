package event

import (
	"math/rand"
	"strings"
	"testing"
)

// Reschedule must be indistinguishable from Cancel followed by At: the same
// firing order and the same Scheduled counter, over random interleavings of
// (re)programming, cancelling, and partial runs. Each of a few slots holds
// one event whose handler logs the slot and time; the reference engine
// reprograms a slot with Cancel+At, the candidate with Reschedule (falling
// back to At once the event fired or was cancelled, as the scheduler's
// dispatch does).
func TestRescheduleMatchesCancelAt(t *testing.T) {
	type firing struct {
		slot int
		at   Time
	}
	const slots = 8
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, cand := New(), New()
		var refLog, candLog []firing
		var refFn, candFn [slots]Handler
		var refH, candH [slots]Handle
		for i := range refFn {
			i := i
			refFn[i] = func(now Time) { refLog = append(refLog, firing{i, now}) }
			candFn[i] = func(now Time) { candLog = append(candLog, firing{i, now}) }
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(slots)
			switch op := rng.Intn(10); {
			case op < 5:
				at := ref.Now() + Time(rng.Intn(20))
				refH[i].Cancel()
				refH[i] = ref.At(at, refFn[i])
				if h, ok := candH[i].Reschedule(at); ok {
					candH[i] = h
				} else {
					candH[i] = cand.At(at, candFn[i])
				}
			case op < 6:
				if refH[i].Cancel() != candH[i].Cancel() {
					t.Fatalf("seed %d step %d: Cancel disagrees", seed, step)
				}
			default:
				until := ref.Now() + Time(rng.Intn(6))
				ref.Run(until)
				cand.Run(until)
			}
			if ref.Scheduled() != cand.Scheduled() || ref.Pending() != cand.Pending() {
				t.Fatalf("seed %d step %d: scheduled %d/%d pending %d/%d", seed, step,
					ref.Scheduled(), cand.Scheduled(), ref.Pending(), cand.Pending())
			}
		}
		ref.RunAll()
		cand.RunAll()
		if ref.Fired() != cand.Fired() || len(refLog) != len(candLog) {
			t.Fatalf("seed %d: fired %d vs %d", seed, ref.Fired(), cand.Fired())
		}
		for k := range refLog {
			if refLog[k] != candLog[k] {
				t.Fatalf("seed %d: firing %d is %+v, want %+v", seed, k, candLog[k], refLog[k])
			}
		}
	}
}

// The firing order itself: rescheduled events fire where Cancel+At would
// put them, including among equal-time peers.
func TestRescheduleOrder(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) Handler { return func(Time) { got = append(got, s) } }
	a := e.At(10, log("a"))
	e.At(20, log("b"))
	c := e.At(5, log("c"))
	e.At(20, log("d"))
	// a moves behind b (fresh seq at the same time), c moves to the end.
	a, ok := a.Reschedule(20)
	if !ok || a.At() != 20 {
		t.Fatalf("Reschedule = %v, %v", a.At(), ok)
	}
	if _, ok := c.Reschedule(30); !ok {
		t.Fatal("Reschedule of a pending event reported not pending")
	}
	e.RunAll()
	if want := "b d a c"; strings.Join(got, " ") != want {
		t.Fatalf("order %q, want %q", strings.Join(got, " "), want)
	}
	if _, ok := a.Reschedule(40); ok {
		t.Fatal("Reschedule of a fired event succeeded")
	}
	if _, ok := (Handle{}).Reschedule(1); ok {
		t.Fatal("Reschedule of the zero Handle succeeded")
	}
}

func TestReschedulePastPanics(t *testing.T) {
	e := New()
	h := e.At(10, noopHandler)
	e.At(5, noopHandler)
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling into the past did not panic")
		}
	}()
	h.Reschedule(4)
}

// NextAt is the earliest pending time capped at the Run horizon + 1, and
// Stop clamps the horizon to Now.
func TestNextAtHorizon(t *testing.T) {
	e := New()
	var seen []Time
	probe := func(Time) { seen = append(seen, e.NextAt()) }
	e.At(10, probe)
	e.At(40, noopHandler)
	e.Run(25)
	if seen[0] != 26 {
		t.Fatalf("NextAt inside Run(25) with next event at 40 = %v, want 26", seen[0])
	}
	e.At(30, probe)
	e.Run(100)
	if seen[1] != 40 {
		t.Fatalf("NextAt with an event at 40 inside Run(100) = %v, want 40", seen[1])
	}
	e.At(150, func(now Time) {
		e.Stop()
		seen = append(seen, e.NextAt())
	})
	e.At(160, noopHandler)
	e.Run(200)
	if seen[2] != 151 {
		t.Fatalf("NextAt after Stop = %v, want Now+1 = 151", seen[2])
	}
	// Step and RunAll elide nothing: the horizon is the firing event's time.
	e.At(e.Now()+5, probe)
	e.At(e.Now()+50, noopHandler)
	at := e.Now() + 5
	for e.Step() {
	}
	if seen[3] != at+1 {
		t.Fatalf("NextAt under Step = %v, want %v", seen[3], at+1)
	}
	e.At(e.Now()+5, probe)
	e.At(e.Now()+50, noopHandler)
	at = e.Now() + 5
	e.RunAll()
	if seen[4] != at+1 {
		t.Fatalf("NextAt under RunAll = %v, want %v", seen[4], at+1)
	}
}

// Skip advances both counters, so events scheduled afterwards get the keys
// they would have had if the skipped events had fired and re-armed.
func TestSkip(t *testing.T) {
	e := New()
	e.At(1, noopHandler)
	e.Run(1)
	seq, fired := e.Scheduled(), e.Fired()
	e.Skip(7)
	if e.Scheduled() != seq+7 || e.Fired() != fired+7 {
		t.Fatalf("after Skip(7): scheduled %d fired %d, want %d %d",
			e.Scheduled(), e.Fired(), seq+7, fired+7)
	}
	h := e.At(5, noopHandler)
	if s, _ := h.EventSeq(); s != seq+7 {
		t.Fatalf("next event seq %d, want %d", s, seq+7)
	}
}

// The one-way sift leaves the heap exactly as the down-then-up pair does:
// an Eager engine, which sifts both ways, must hold the same entries in the
// same slots after every reprogramming of a random queue.
func TestOneWayRescheduleMatchesTwoWay(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		one, two := New(), New()
		two.Eager()
		var h1, h2 [16]Handle
		for i := range h1 {
			at := Time(rng.Intn(50))
			h1[i], h2[i] = one.At(at, noopHandler), two.At(at, noopHandler)
		}
		for step := 0; step < 500; step++ {
			i := rng.Intn(len(h1))
			at := one.Now() + Time(rng.Intn(60))
			var ok1, ok2 bool
			h1[i], ok1 = h1[i].Reschedule(at)
			h2[i], ok2 = h2[i].Reschedule(at)
			if !ok1 || !ok2 {
				t.Fatalf("seed %d step %d: Reschedule of a pending event failed", seed, step)
			}
			for k := range one.heap {
				if one.heap[k].at != two.heap[k].at || one.heap[k].seq != two.heap[k].seq {
					t.Fatalf("seed %d step %d: slot %d holds %+v, two-way sift %+v",
						seed, step, k, one.heap[k], two.heap[k])
				}
			}
		}
	}
}

// Advance moves the clock only inside [Now, NextAt()), so an inline firing
// can never pass a pending event or the horizon; an Eager engine's NextAt
// is Now, which leaves nothing to advance into.
func TestAdvance(t *testing.T) {
	e := New()
	panics := func(at Time) (p bool) {
		defer func() { p = recover() != nil }()
		e.Advance(at)
		return false
	}
	var ok, past, atNext, beyond bool
	e.At(10, func(now Time) {
		ok = !panics(now) && !panics(now+4) && e.Now() == 14
		past = panics(13)
		atNext = panics(20)
		beyond = panics(25)
	})
	e.At(20, noopHandler)
	e.Run(100)
	if !ok {
		t.Fatal("Advance inside [now, NextAt) panicked or did not move the clock")
	}
	if !past || !atNext || !beyond {
		t.Fatalf("Advance guard: into the past panics=%v, to NextAt panics=%v, beyond it panics=%v; want all true",
			past, atNext, beyond)
	}
	eager := New()
	eager.Eager()
	eager.At(10, func(now Time) {
		if eager.NextAt() != now {
			t.Errorf("Eager NextAt = %v, want Now %v", eager.NextAt(), now)
		}
	})
	eager.At(50, noopHandler)
	eager.Run(100)
}
