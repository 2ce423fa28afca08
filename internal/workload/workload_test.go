package workload

import (
	"math"
	"math/rand"
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
)

func newCtx(dur event.Time) *Ctx {
	eng := event.New()
	sys := sched.New(eng, platform.Exynos5422(), sched.DefaultConfig())
	sys.Start()
	return &Ctx{
		Eng: eng, Sys: sys, Rng: rand.New(rand.NewSource(1)),
		Duration: dur,
		FPS:      &metrics.FPSTracker{},
		Lat:      &metrics.LatencyTracker{},
	}
}

func TestThreadPushCallbacks(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "t", 1.5)
	var order []int
	th.Push(1000, func(event.Time) { order = append(order, 1) })
	th.Push(1000, nil)
	th.Push(1000, func(event.Time) { order = append(order, 3) })
	ctx.Eng.Run(100 * event.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("callback order %v", order)
	}
}

func TestThreadPushZeroImmediate(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "t", 1)
	fired := false
	th.Push(0, func(event.Time) { fired = true })
	if !fired {
		t.Fatal("zero-work push must complete synchronously")
	}
}

func TestJitterBounds(t *testing.T) {
	ctx := newCtx(event.Second)
	for i := 0; i < 1000; i++ {
		v := ctx.Jitter(100, 0.3)
		if v < 70-1e-9 || v > 130+1e-9 {
			t.Fatalf("jitter %f outside [70,130]", v)
		}
	}
	if ctx.Jitter(100, 0) != 100 {
		t.Fatal("cv=0 must be exact")
	}
	// Extreme cv clamps at 10% of mean.
	for i := 0; i < 1000; i++ {
		if v := ctx.Jitter(100, 2); v < 10-1e-9 {
			t.Fatalf("jitter %f below clamp", v)
		}
	}
}

func TestExpDistribution(t *testing.T) {
	ctx := newCtx(event.Second)
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		d := ctx.Exp(10 * event.Millisecond)
		if d < 100*event.Microsecond {
			t.Fatal("below minimum clamp")
		}
		sum += d.Seconds()
	}
	mean := sum / float64(n)
	if mean < 0.008 || mean > 0.012 {
		t.Fatalf("mean %f, want ~0.010", mean)
	}
}

func TestHeavyTail(t *testing.T) {
	ctx := newCtx(event.Second)
	heavy := 0
	n := 10000
	for i := 0; i < n; i++ {
		if ctx.HeavyTail(100, 0, 0.1, 5) > 300 {
			heavy++
		}
	}
	frac := float64(heavy) / float64(n)
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("heavy fraction %f, want ~0.10", frac)
	}
}

func TestPeriodicRuns(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "p", 1)
	count := 0
	Periodic(ctx, th, PeriodicConfig{
		Period: 100 * event.Millisecond,
		Work:   1000,
		OnDone: func(event.Time) { count++ },
	})
	ctx.Eng.Run(ctx.Duration)
	if count != 10 {
		t.Fatalf("%d activations, want 10", count)
	}
}

func TestPeriodicDropIfBusy(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "p", 1)
	done := 0
	// Work takes 300ms at 500 MHz, period is 100ms: with DropIfBusy most
	// activations are skipped.
	Periodic(ctx, th, PeriodicConfig{
		Period:     100 * event.Millisecond,
		Work:       150e6,
		DropIfBusy: true,
		OnDone:     func(event.Time) { done++ },
	})
	ctx.Eng.Run(ctx.Duration)
	if done >= 10 || done == 0 {
		t.Fatalf("%d completions, want a dropped-frame count in (0,10)", done)
	}
}

func TestContinuousSaturates(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "c", 1)
	Continuous(ctx, th, 1e6)
	ctx.Eng.Run(ctx.Duration)
	busy := th.Task.LittleRanNs + th.Task.BigRanNs
	if busy < 950*event.Millisecond {
		t.Fatalf("continuous thread busy only %v of 1s", busy)
	}
}

func TestPoissonBursts(t *testing.T) {
	ctx := newCtx(2 * event.Second)
	th := NewThread(ctx, "b", 1)
	PoissonBursts(ctx, th, 50*event.Millisecond, 1000, 0.2)
	ctx.Eng.Run(ctx.Duration)
	if th.Task.SegmentsDone < 20 || th.Task.SegmentsDone > 70 {
		t.Fatalf("%d bursts in 2s at 50ms mean, want ~40", th.Task.SegmentsDone)
	}
}

func TestRunStagesSequential(t *testing.T) {
	ctx := newCtx(event.Second)
	a := NewThread(ctx, "a", 1)
	b := NewThread(ctx, "b", 1)
	var doneAt event.Time
	var aDone, bDone event.Time
	a.Task.OnIdle = func(now event.Time) { aDone = now }
	b.Task.OnIdle = func(now event.Time) { bDone = now }
	RunStages(ctx, []Stage{
		{Threads: []*Thread{a}, Work: 5e5}, // 1ms at 500MHz
		{Threads: []*Thread{b}, Work: 5e5},
	}, func(now event.Time) { doneAt = now })
	ctx.Eng.Run(ctx.Duration)
	if doneAt == 0 {
		t.Fatal("pipeline never completed")
	}
	if !(aDone > 0 && bDone >= aDone && doneAt >= bDone) {
		t.Fatalf("stage ordering violated: a=%v b=%v done=%v", aDone, bDone, doneAt)
	}
}

func TestRunStagesParallelBarrier(t *testing.T) {
	ctx := newCtx(event.Second)
	a := NewThread(ctx, "a", 1)
	b := NewThread(ctx, "b", 1)
	c := NewThread(ctx, "c", 1)
	var doneAt event.Time
	RunStages(ctx, []Stage{
		{Threads: []*Thread{a, b}, Work: 5e5},
		{Threads: []*Thread{c}, Work: 5e5},
	}, func(now event.Time) { doneAt = now })
	ctx.Eng.Run(ctx.Duration)
	if doneAt == 0 {
		t.Fatal("pipeline never completed")
	}
	if a.Task.TotalWork == 0 || b.Task.TotalWork == 0 || c.Task.TotalWork == 0 {
		t.Fatal("some stage thread did no work")
	}
}

func TestRunStagesPostDelay(t *testing.T) {
	ctx := newCtx(event.Second)
	a := NewThread(ctx, "a", 1)
	var doneAt event.Time
	RunStages(ctx, []Stage{
		{Threads: []*Thread{a}, Work: 5e5, PostDelay: 50 * event.Millisecond},
	}, func(now event.Time) { doneAt = now })
	ctx.Eng.Run(ctx.Duration)
	if doneAt < 51*event.Millisecond {
		t.Fatalf("pipeline completed at %v, PostDelay not applied", doneAt)
	}
}

func TestRunStagesEmptyStage(t *testing.T) {
	ctx := newCtx(event.Second)
	fired := false
	RunStages(ctx, []Stage{{}, {}}, func(event.Time) { fired = true })
	if !fired {
		t.Fatal("empty pipeline should complete immediately")
	}
}

func TestInteractionLoopRecordsLatency(t *testing.T) {
	ctx := newCtx(2 * event.Second)
	th := NewThread(ctx, "ui", 1)
	InteractionLoop(ctx, InteractionConfig{
		Think: 100 * event.Millisecond,
		Stages: func() []Stage {
			return []Stage{{Threads: []*Thread{th}, Work: 5e5}}
		},
	})
	ctx.Eng.Run(ctx.Duration)
	if ctx.Lat.N < 10 {
		t.Fatalf("%d interactions in 2s at 100ms think", ctx.Lat.N)
	}
	if ctx.Lat.Mean() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestInteractionLoopSilent(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "ui", 1)
	InteractionLoop(ctx, InteractionConfig{
		Think: 50 * event.Millisecond, Silent: true,
		Stages: func() []Stage {
			return []Stage{{Threads: []*Thread{th}, Work: 1e5}}
		},
	})
	ctx.Eng.Run(ctx.Duration)
	if ctx.Lat.N != 0 {
		t.Fatalf("silent loop recorded %d latencies", ctx.Lat.N)
	}
	if th.Task.SegmentsDone == 0 {
		t.Fatal("silent loop did no work")
	}
}

func TestInteractionBoostPlacesOnBig(t *testing.T) {
	ctx := newCtx(event.Second)
	th := NewThread(ctx, "ui", 1.8)
	sawBig := false
	InteractionLoop(ctx, InteractionConfig{
		Think: 50 * event.Millisecond,
		Boost: []*Thread{th}, BoostLoad: 900,
		Stages: func() []Stage {
			return []Stage{{Threads: []*Thread{th}, Work: 2e6}}
		},
	})
	ctx.Sys.OnTick(func(now event.Time) {
		if cpu := th.Task.CPU(); cpu >= 4 {
			sawBig = true
		}
	})
	ctx.Eng.Run(ctx.Duration)
	if !sawBig {
		t.Fatal("boosted thread never placed on a big core")
	}
}

func TestTouchKicksRaiseFrequency(t *testing.T) {
	ctx := newCtx(event.Second)
	TouchKicks(ctx, 50*event.Millisecond)
	lc := ctx.Sys.SoC.ClusterByType(platform.Little)
	bc := ctx.Sys.SoC.ClusterByType(platform.Big)
	sawLittleMax, sawBigFloor := false, false
	ctx.Sys.OnTick(func(now event.Time) {
		if lc.CurMHz == lc.MaxMHz() {
			sawLittleMax = true
		}
		if bc.CurMHz >= 1500 {
			sawBigFloor = true
		}
	})
	ctx.Eng.Run(ctx.Duration)
	if !sawLittleMax || !sawBigFloor {
		t.Fatalf("kicks not observed: littleMax=%v bigFloor=%v", sawLittleMax, sawBigFloor)
	}
}

func TestCyclesForDuty(t *testing.T) {
	// 50% of a 1300 MHz core over 10ms = 6.5e6 cycles.
	got := CyclesForDuty(0.5, 1300, 10*event.Millisecond)
	if math.Abs(got-6.5e6) > 1 {
		t.Fatalf("CyclesForDuty = %f, want 6.5e6", got)
	}
}
