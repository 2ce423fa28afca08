package sched

import (
	"math"
	"math/rand"
	"testing"

	"biglittle/internal/event"
)

// TestLazyDecayMatchesEager drives two identical systems through the same
// randomized script of short bursts (most finishing inside one tick), long
// sleeps, and boosts of sleeping tasks, on pinned and free tasks alike. The
// eager system reads every task's load at the end of every tick, which
// both disables tick elision and keeps every tracker current; the other
// elides and decays lazily. Loads and burst footprints must agree to the
// bit at every probe.
func TestLazyDecayMatchesEager(t *testing.T) {
	type op struct {
		at     event.Time
		task   int
		cycles float64 // > 0: push; 0: boost
		boost  int
	}
	rng := rand.New(rand.NewSource(7))
	var script []op
	for at := event.Time(0); at < 2*event.Second; {
		at += event.Time(rng.Int63n(int64(60 * event.Millisecond)))
		o := op{at: at, task: rng.Intn(4)}
		if rng.Intn(5) == 0 {
			o.boost = 200 + rng.Intn(800)
		} else {
			o.cycles = float64(1e4 + rng.Intn(2e6)) // 20 µs .. 4 ms at 500 MHz
		}
		script = append(script, o)
	}

	build := func(eager bool) (*event.Engine, *System) {
		eng, s := newSys()
		for i := 0; i < 4; i++ {
			task := s.NewTask("t", 1.5)
			if i%2 == 1 {
				task.Pin(i) // pinned wakes skip the placement's load read
			}
		}
		if eager {
			s.OnTick(func(event.Time) {
				for _, task := range s.tasks {
					task.Load()
				}
			})
		}
		for _, o := range script {
			o := o
			eng.At(o.at, func(event.Time) {
				task := s.tasks[o.task]
				if o.cycles > 0 {
					s.Push(task, o.cycles)
				} else {
					task.Boost(o.boost)
				}
			})
		}
		return eng, s
	}
	engE, eagerSys := build(true)
	engL, lazySys := build(false)
	for probe := event.Time(0); probe <= 2*event.Second; probe += 97 * event.Millisecond {
		engE.Run(probe)
		engL.Run(probe)
		for i := range eagerSys.tasks {
			e, l := eagerSys.tasks[i], lazySys.tasks[i]
			if a, b := math.Float64bits(e.caughtUp().LoadF()), math.Float64bits(l.caughtUp().LoadF()); a != b {
				t.Fatalf("t=%v task %d: lazy load %v, eager %v", probe, i, l.tracker.LoadF(), e.tracker.LoadF())
			}
			if e.sleepLoad != l.sleepLoad {
				t.Fatalf("t=%v task %d: lazy burst footprint %v, eager %v", probe, i, l.sleepLoad, e.sleepLoad)
			}
		}
	}
	if eagerSys.ElidedTicks() != 0 || lazySys.ElidedTicks() == 0 {
		t.Fatalf("elided ticks: eager %d, lazy %d", eagerSys.ElidedTicks(), lazySys.ElidedTicks())
	}
	if engE.Fired() != engL.Fired() || engE.Scheduled() != engL.Scheduled() {
		t.Fatalf("engine counters %d/%d, eager %d/%d", engL.Fired(), engL.Scheduled(), engE.Fired(), engE.Scheduled())
	}
}
