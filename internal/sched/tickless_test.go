package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/platform"
)

// TestLazyDecayMatchesEager drives two identical systems through the same
// randomized script of short bursts (most finishing inside one tick), long
// sleeps, and boosts of sleeping tasks, on pinned and free tasks alike. The
// eager system runs on an Eager engine, which disables every tick shortcut,
// and reads every task's load at the end of every tick, which keeps every
// tracker current; the other elides and decays lazily. Loads and burst footprints must agree to the
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
		if eager {
			eng.Eager()
		}
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

// testPeriodic is a Periodic participant that logs every firing: its
// name, time, clock and the little cluster's frequency then in effect. A
// "stepper" also moves that frequency, so a firing replayed out of order or
// at the wrong clock shows in the log of the others.
type testPeriodic struct {
	s       *System
	name    string
	period  event.Time
	stepper bool
	ev      event.Handle
	handler event.Handler
	log     *[]string
}

func addPeriodic(s *System, log *[]string, name string, period event.Time, stepper bool) *testPeriodic {
	p := &testPeriodic{s: s, name: name, period: period, stepper: stepper, log: log}
	p.handler = s.Periodic(&p.ev, period, p.fire)
	p.ev = s.Eng.After(period, p.handler)
	return p
}

func (p *testPeriodic) fire(now event.Time) {
	if p.log == nil {
		return
	}
	cl := p.s.SoC.ClusterByType(platform.Little)
	*p.log = append(*p.log, fmt.Sprintf("%s@%v clock=%v mhz=%d deep=%v", p.name, now, p.s.Eng.Now(), cl.CurMHz, p.s.DeepIdleNs(0)))
	if p.stepper {
		f := cl.FreqsMHz
		p.s.SetClusterFreq(cl.ID, f[int(now/p.period)%len(f)])
	}
}

// TestCatchUpMatchesEager runs periodic participants with overlapping
// periods (shared timestamps every 20 and 30 ms) over a script of sparse
// bursts, once on an Eager engine and once with dormant ticks replaying the
// participants inline. Every firing must see the same clock, frequency and
// deep-idle sum, and the engines must end with the same counters and the
// same pending keys.
func TestCatchUpMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pushes []event.Time
	for at := event.Time(0); at < 3*event.Second; {
		at += event.Time(rng.Int63n(int64(300 * event.Millisecond)))
		pushes = append(pushes, at)
	}
	run := func(eager bool) ([]string, *event.Engine, *System, []*testPeriodic) {
		eng := event.New()
		if eager {
			eng.Eager()
		}
		cfg := DefaultConfig()
		cfg.DeepIdleAfter = 3 * event.Millisecond
		cfg.DeepIdleWake = event.Millisecond
		s := New(eng, platform.Exynos5422(), cfg)
		s.Start()
		var log []string
		ps := []*testPeriodic{
			addPeriodic(s, &log, "gov", 20*event.Millisecond, true),
			addPeriodic(s, &log, "sample", 10*event.Millisecond, false),
			addPeriodic(s, &log, "therm", 30*event.Millisecond, false),
		}
		task := s.NewTask("t", 1.5)
		for _, at := range pushes {
			eng.At(at, func(event.Time) { s.Push(task, 2e6) })
		}
		for end := event.Time(0); end < 3*event.Second; end += 250*event.Millisecond + 7 {
			eng.Run(end)
		}
		eng.Run(3 * event.Second)
		return log, eng, s, ps
	}
	wantLog, wantEng, wantSys, wantPs := run(true)
	gotLog, gotEng, gotSys, gotPs := run(false)
	if wantSys.ReplayedFirings() != 0 || gotSys.ReplayedFirings() == 0 {
		t.Fatalf("replayed firings: eager %d, catch-up %d", wantSys.ReplayedFirings(), gotSys.ReplayedFirings())
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%d firings, eager %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("firing %d: %s, eager %s", i, gotLog[i], wantLog[i])
		}
	}
	if gotEng.Fired() != wantEng.Fired() || gotEng.Scheduled() != wantEng.Scheduled() {
		t.Fatalf("engine counters %d/%d, eager %d/%d", gotEng.Fired(), gotEng.Scheduled(), wantEng.Fired(), wantEng.Scheduled())
	}
	for i := range wantPs {
		ws, _ := wantPs[i].ev.EventSeq()
		gs, _ := gotPs[i].ev.EventSeq()
		if gotPs[i].ev.At() != wantPs[i].ev.At() || gs != ws {
			t.Fatalf("%s pending at (%v, %d), eager (%v, %d)", wantPs[i].name, gotPs[i].ev.At(), gs, wantPs[i].ev.At(), ws)
		}
	}
	ws, _ := wantSys.tickEv.EventSeq()
	gs, _ := gotSys.tickEv.EventSeq()
	if gotSys.tickEv.At() != wantSys.tickEv.At() || gs != ws {
		t.Fatalf("tick pending at (%v, %d), eager (%v, %d)", gotSys.tickEv.At(), gs, wantSys.tickEv.At(), ws)
	}
}

// A dormant stretch replayed inline must not allocate: the merge works on
// the preallocated periodic list and re-queues through the engine's pool.
func TestZeroAllocCatchUp(t *testing.T) {
	eng, s := newSys()
	addPeriodic(s, nil, "sample", 10*event.Millisecond, false)
	eng.Run(event.Second)
	before := s.ReplayedFirings()
	if avg := testing.AllocsPerRun(50, func() {
		eng.Run(eng.Now() + event.Second)
	}); avg != 0 {
		t.Fatalf("a dormant second allocates %.1f objects, want 0", avg)
	}
	if s.ReplayedFirings() == before {
		t.Fatal("no firing was replayed")
	}
}

// dispatch skips the Cancel only on an idle core with no completion handle
// left: a core whose running task migrates away must drop its pending
// completion, or it would fire on an empty queue.
func TestMigrationCancelsCompletion(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1.5)
	s.Push(task, 1e9)
	src := task.CPU()
	if !s.cpus[src].completion.Pending() {
		t.Fatal("running task has no pending completion")
	}
	eng.Run(event.Millisecond / 2)
	s.MoveToType(task, platform.Big)
	if task.CPU() == src {
		t.Fatal("task did not migrate")
	}
	if s.cpus[src].completion.Pending() || s.cpus[src].completion != (event.Handle{}) {
		t.Fatalf("core %d kept its completion after its task migrated away", src)
	}
	if !s.cpus[task.CPU()].completion.Pending() {
		t.Fatal("destination core has no pending completion")
	}
}

// SyncAll skips idle cores, and syncedTo reports the sync they missed; on an
// Eager engine every core is synced every time.
func TestIdleCoreSync(t *testing.T) {
	for _, eager := range []bool{false, true} {
		eng, s := newSys()
		if eager {
			eng.Eager()
		}
		task := s.NewTask("t", 1.5)
		s.Push(task, 1e9)
		busy := s.cpus[task.CPU()]
		eng.Run(5 * event.Millisecond) // the tick at 5 ms syncs last
		for _, c := range s.cpus {
			if got := s.syncedTo(c); got != 5*event.Millisecond {
				t.Fatalf("eager=%v: cpu %d synced to %v, want 5ms", eager, c.id, got)
			}
			if lagging := c.lastSync != 5*event.Millisecond; lagging != (!eager && c != busy) {
				t.Fatalf("eager=%v: cpu %d lastSync %v", eager, c.id, c.lastSync)
			}
		}
	}
}
