// Package sched implements the CPU execution engine and the HMP
// (Heterogeneous Multi-Processing) scheduler described in §IV-B of the paper
// (Algorithm 1): per-core run queues with round-robin time slicing at 1 ms
// scheduler ticks, per-task frequency-invariant load tracking with geometric
// decay (half-life 32 ms), up/down-threshold migration between the big and
// little clusters, intra-cluster load balancing, and load-based wake
// placement.
//
// Work is expressed in little-core cycles: a task segment of W cycles runs at
// rate f·1e6 cycles/s on a little core at f MHz and at Speedup·f·1e6 on a big
// core, where Speedup is the task's big-core efficiency (§IV-A).
package sched

import (
	"fmt"
	"math"

	"biglittle/internal/event"
	"biglittle/internal/pelt"
	"biglittle/internal/platform"
	"biglittle/internal/profile"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// Config holds the HMP scheduler tunables swept in §VI-C.
type Config struct {
	// UpThreshold: a task on a little core migrates up when its tracked
	// load exceeds this (default 700 of 1024).
	UpThreshold int
	// DownThreshold: a task on a big core migrates down below this
	// (default 256).
	DownThreshold int
	// HalfLifeMs is the load-history time weight (default 32; the paper
	// sweeps 2x and ½x).
	HalfLifeMs int
	// TickMs is the scheduler tick (load update / migration / balancing
	// period). The paper's load history operates at 1 ms granularity.
	TickMs int
	// DeepIdle enables the deep (cluster-sleep) idle state: a core idle for
	// longer than DeepIdleAfter powers down its activity overhead entirely
	// but pays DeepIdleWake of extra latency on the next wake — the cpuidle
	// menu-governor trade-off. Zero values disable deep idle (WFI only).
	DeepIdleAfter event.Time
	DeepIdleWake  event.Time
	// TinyWakeLoad gates the tiny tier (platforms with tiny cores only): a
	// task may wake on or migrate down to a tiny core only when its
	// burst footprint — the EWMA of its load at sleep time — is below this
	// value. This is the small-task-packing heuristic tiny-core proposals
	// rely on; placing by instantaneous (decayed) load alone would sink
	// every interactive thread into the tiny cluster. Default 70.
	TinyWakeLoad int
}

// DefaultConfig returns the paper's baseline HMP parameters.
func DefaultConfig() Config {
	return Config{UpThreshold: 700, DownThreshold: 256, HalfLifeMs: pelt.DefaultHalfLifeMs, TickMs: 1, TinyWakeLoad: 70}
}

// State is a task's lifecycle state.
type State int

const (
	Sleeping State = iota
	Waking         // paying a deep-idle exit latency before enqueue
	Runnable       // on a run queue, not executing
	Running        // head of a run queue
)

func (s State) String() string {
	switch s {
	case Sleeping:
		return "sleeping"
	case Waking:
		return "waking"
	case Runnable:
		return "runnable"
	default:
		return "running"
	}
}

// Task is a schedulable entity.
type Task struct {
	ID   int
	Name string
	// Speedup is the big-core efficiency: execution rate multiplier when
	// running on a big core (>= 1).
	Speedup float64

	// OnSegment fires when a pushed work segment completes.
	OnSegment func(now event.Time)
	// OnIdle fires when the task drains all queued work and goes to sleep.
	OnIdle func(now event.Time)

	sys     *System
	tracker *pelt.Tracker
	// decayed is the System.ticks count the tracker is current through;
	// the ticks since then all found the task asleep, and their decay is
	// applied on the next read (see caughtUp).
	decayed   uint64
	state     State
	cpu       int // current queue, -1 when sleeping
	pinned    int // affinity: -1 means any core
	lastCPU   int // last cpu it was queued on (for wake placement / freq scale)
	remaining float64
	// fifo[fifoHead:] holds pending work segments. The head index (rather
	// than re-slicing fifo[1:]) keeps the backing array's front capacity, so
	// steady push/pop cycles reuse one allocation instead of growing forever.
	fifo     []float64
	fifoHead int
	ranNs    event.Time // execution time within the current tick window
	wokeAt   event.Time
	// sleepLoad is an EWMA of the task's load at each sleep transition —
	// its "burst footprint", used to gate the tiny tier.
	sleepLoad float64
	// wakeFn/wakeEv/wakeDst track the deep-idle exit event: the handler is
	// bound once at task creation and the handle retained so snapshot can
	// capture (and restore can re-bind) an in-flight wake.
	wakeFn  event.Handler
	wakeEv  event.Handle
	wakeDst int

	// Stats
	TotalWork    float64
	Migrations   int
	SegmentsDone int
	BigRanNs     event.Time
	LittleRanNs  event.Time
	TinyRanNs    event.Time
	// EnergyMJ attributes the activity-proportional system energy to the
	// task (accumulated when System.EnergyModel is set).
	EnergyMJ float64
}

// Load returns the task's tracked HMP load (0..1024).
func (t *Task) Load() int { return t.caughtUp().Load() }

// caughtUp applies the decay of the ticks the task slept through since its
// tracker was last touched, and returns the tracker. Each deferred tick is
// the same load·y step the eager update would have taken (pelt.Decay), so
// every read sees exactly the value an every-tick update would have left.
func (t *Task) caughtUp() *pelt.Tracker {
	if t.decayed < t.sys.ticks {
		t.tracker.Decay(t.sys.ticks - t.decayed)
		t.decayed = t.sys.ticks
	}
	return t.tracker
}

// Pin restricts the task to one core: it always wakes there and is exempt
// from HMP migration and load balancing (the kernel's CPU affinity mask).
// Pin must be called while the task is asleep; pinning to an offline core
// panics at the next wake.
func (t *Task) Pin(cpu int) { t.pinned = cpu }

// Boost raises the task's tracked load to at least v (0..1024), mimicking
// the input-boost mechanism Android applies on touch events so that the
// responding threads are immediately eligible for a big core. The boost
// decays through normal load tracking.
func (t *Task) Boost(v int) {
	if tr := t.caughtUp(); float64(v) > tr.LoadF() {
		tr.Set(float64(v))
		if t.sys != nil && t.sys.Tel != nil {
			t.sys.Tel.Emit(telemetry.Event{
				At: t.sys.Eng.Now(), Kind: telemetry.KindBoost,
				Task: t.ID, TaskName: t.Name,
				Core: t.cpu, FromCore: -1, Cluster: -1,
				Value: float64(v),
			})
		}
	}
}

// CurState returns the current lifecycle state.
func (t *Task) CurState() State { return t.state }

// CPU returns the core the task is queued on, or -1.
func (t *Task) CPU() int { return t.cpu }

// Queued returns the number of pending work segments beyond the current one.
func (t *Task) Queued() int { return len(t.fifo) - t.fifoHead }

type cpu struct {
	id       int
	typ      platform.CoreType
	cl       *platform.Cluster // the core's cluster, whose clock it runs at
	queue    []*Task
	lastSync event.Time
	busyCum  event.Time
	// completion is the pending completion event for the head task.
	// completeFn is the handler it fires, built once per cpu so dispatch —
	// the hottest scheduler path — never allocates a closure.
	completion event.Handle
	completeFn event.Handler
	sliceUsed  int // consecutive ticks the head has run (for round-robin)
	// emMHz/emMW cache EnergyModel(typ, emMHz): the model is a pure function
	// of (type, MHz), so it is re-evaluated only when the cluster's
	// frequency has changed since the last sync.
	emMHz int
	emMW  float64
	// idleSince marks when the core last became idle; deepCum accumulates
	// time spent in the deep idle state (after Cfg.DeepIdleAfter of idling).
	idleSince event.Time
	deepCum   event.Time
}

// System drives task execution over a platform SoC.
//
// It is also the one home of the run's observers: Tel, Prof, and Xray are
// set once at assembly, and every subsystem holding the system (governors,
// the metrics sampler, the thermal model) emits through them. Pure
// observers that need a consistent per-tick view subscribe with OnTick.
type System struct {
	Eng *event.Engine
	SoC *platform.SoC
	Cfg Config

	cpus   []*cpu
	tasks  []*Task
	tick   event.Time
	tickFn event.Handler // onTick bound once; re-arming it must not allocate
	tickEv event.Handle  // the pending tick (retained for snapshot capture)
	// ticks counts load-tracking periods, elided idle ticks included; a
	// task's tracker is decayed up to it lazily (Task.caughtUp).
	ticks    uint64
	syncedAt event.Time // the last SyncAll (see syncedTo)
	elided   uint64     // ticks skipped while dormant (see onTick)
	inline   uint64     // ticks run inside the previous tick's handler
	replayed uint64     // periodic firings run inline by a dormant tick
	// awake counts the tasks not Sleeping, kept at every state transition,
	// so the dormancy test reads one counter instead of every task.
	awake   int
	started bool
	// periodics are the other subsystems' periodic events a dormant tick
	// may run inline (see Periodic and sleep). It starts on periodicBuf,
	// room for the sampler, the governor, the thermal model and the tick
	// itself, so assembling a simulation allocates nothing for it.
	periodics   []periodic
	periodicBuf [4]periodic
	// tickSubs run in attach order at the end of every tick (see OnTick).
	tickSubs []func(now event.Time)

	// Tel, when non-nil, receives a telemetry event for every migration
	// (with its reason), wake placement, round-robin preemption, boost,
	// frequency change, and hotplug transition, plus the governor, thermal,
	// and power-meter events of the subsystems attached to this system. Nil
	// disables all recording at the cost of one pointer check per
	// occurrence.
	Tel *telemetry.Collector

	// Prof, when non-nil, receives per-task attribution streams: every sync
	// interval's run time (with core type and frequency) and runnable wait,
	// every wake, every migration, and the metrics sampler's power
	// intervals. Nil disables attribution at the cost of one pointer check
	// per emit site.
	Prof *profile.Profiler

	// Xray, when non-nil, receives a decision span for every wake placement,
	// migration, and hotplug transition — and, through the attached
	// governor and thermal model, every frequency and cap step: the
	// candidates considered, the thresholds compared, and the rejection
	// reason per alternative, causally linked into chains. Nil disables
	// causal tracing at the cost of one pointer check per decision (see
	// internal/sched/xray.go).
	Xray *xray.Tracer

	// MigrateHook, if set, replaces the built-in HMP threshold migration:
	// it runs every tick after load updates and may call MoveToType to
	// reassign tasks. Alternative scheduling policies (efficiency-based,
	// parallelism-aware, EAS; §IV-A of the paper) plug in here. It is a
	// single-owner policy slot, not an observer hook: the policy that sets
	// it replaces HMP migration, and a later assignment replaces the
	// earlier policy outright.
	MigrateHook func(now event.Time)
	// WakeHook, if set, overrides HMP wake placement: it returns the core
	// type a waking task should be placed on. Pinned tasks ignore it. Like
	// MigrateHook it is a single-owner policy slot set by the scheduling
	// policy; observers use OnTick or the telemetry stream instead.
	WakeHook func(t *Task) platform.CoreType

	// EnergyModel, if set, returns the marginal active power (mW) of a core
	// of the given type at the given frequency; the scheduler uses it to
	// attribute energy to the running task in sync. It must be a pure
	// function of (type, MHz) and must be set before the run starts: each
	// cpu caches its value until its cluster's frequency changes.
	EnergyModel func(typ platform.CoreType, mhz int) float64
}

// New creates a System over soc. Call Start before running the engine.
func New(eng *event.Engine, soc *platform.SoC, cfg Config) *System {
	if cfg.TickMs <= 0 {
		cfg.TickMs = 1
	}
	s := &System{Eng: eng, SoC: soc, Cfg: cfg, tick: event.Time(cfg.TickMs) * event.Millisecond}
	s.periodics = s.periodicBuf[:0]
	s.tickFn = s.onTick
	for i := range soc.Cores {
		c := &cpu{id: i, typ: soc.Cores[i].Type, cl: soc.ClusterOf(i), emMHz: -1}
		c.completeFn = func(at event.Time) { s.onCompletion(c, at) }
		s.cpus = append(s.cpus, c)
	}
	return s
}

// Tasks returns all created tasks.
func (s *System) Tasks() []*Task { return s.tasks }

// NewTask registers a task. speedup is its big-core efficiency (clamped to
// >= 1). Tasks start asleep with zero load.
func (s *System) NewTask(name string, speedup float64) *Task {
	if speedup < 1 {
		speedup = 1
	}
	t := &Task{
		ID:      len(s.tasks),
		Name:    name,
		Speedup: speedup,
		sys:     s,
		tracker: pelt.NewTracker(s.Cfg.HalfLifeMs),
		cpu:     -1,
		pinned:  -1,
		lastCPU: -1,
		wakeDst: -1,
	}
	t.wakeFn = func(at event.Time) { s.onDeepWake(t, at) }
	s.tasks = append(s.tasks, t)
	return t
}

// OnTick subscribes fn to the end of every scheduler tick, after accounting,
// migration, balancing, and dispatch have settled the state. Subscribers run
// in attach order and cannot be removed, so attaching an observer never
// disconnects another.
func (s *System) OnTick(fn func(now event.Time)) {
	s.tickSubs = append(s.tickSubs, fn)
}

// periodic is another subsystem's self-re-arming engine event, registered
// with Periodic.
type periodic struct {
	ev      *event.Handle // the owner's handle to its pending firing
	period  event.Time
	handler event.Handler // the event's handler: one firing plus its re-arm
	fire    event.Handler // one firing's work, without the re-arm
	at      event.Time    // scratch key while a dormant tick merges firings
	seq     uint64
}

// Periodic registers a subsystem's periodic event with the scheduler tick
// and returns the event's handler, which runs fire and re-arms the event
// period later into *ev. The owner schedules that handler to start the
// event (and to restore it from a snapshot) and keeps ev as its handle to
// the pending firing. While the system is dormant, a tick runs these
// firings inline at their eager times and in their eager order instead of
// stopping its elision at each one (see sleep), and leaves the event
// pending with the (at, seq) key the eager run would have given it. fire
// must not schedule engine events or wake tasks.
func (s *System) Periodic(ev *event.Handle, period event.Time, fire event.Handler) event.Handler {
	var handler event.Handler
	handler = func(now event.Time) {
		fire(now)
		*ev = s.Eng.After(period, handler)
	}
	s.periodics = append(s.periodics, periodic{ev: ev, period: period, handler: handler, fire: fire})
	return handler
}

// Start begins the scheduler tick loop.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	s.tickEv = s.Eng.After(s.tick, s.tickFn)
}

// TinyPerfScale is the per-clock efficiency of a tiny core relative to a
// little core (narrower in-order pipeline).
const TinyPerfScale = 0.65

// rate returns a cpu's execution rate in cycles per nanosecond for a task.
func (s *System) rate(c *cpu, t *Task) float64 {
	f := float64(c.cl.CurMHz)
	sp := 1.0
	switch c.typ {
	case platform.Big:
		sp = t.Speedup
	case platform.Tiny:
		sp = TinyPerfScale
	}
	return f * sp / 1000.0 // MHz·1e6 cycles/s = MHz/1000 cycles/ns
}

// sync advances the head task of cpu c to the current time.
func (s *System) sync(c *cpu, now event.Time) {
	dt := now - c.lastSync
	c.lastSync = now
	if dt <= 0 {
		return
	}
	if len(c.queue) == 0 {
		if s.Cfg.DeepIdleAfter > 0 {
			deepStart := c.idleSince + s.Cfg.DeepIdleAfter
			if now > deepStart {
				from := deepStart
				if now-dt > from {
					from = now - dt
				}
				c.deepCum += now - from
			}
		}
		return
	}
	head := c.queue[0]
	done := float64(dt) * s.rate(c, head)
	if done > head.remaining {
		// The completion event fires within 1 ns of the true finish time;
		// clamp so executed work exactly matches pushed work.
		done = head.remaining
	}
	head.remaining -= done
	head.TotalWork += done
	head.ranNs += dt
	if s.EnergyModel != nil {
		if mhz := c.cl.CurMHz; mhz != c.emMHz {
			c.emMHz, c.emMW = mhz, s.EnergyModel(c.typ, mhz)
		}
		head.EnergyMJ += dt.Seconds() * c.emMW
	}
	switch c.typ {
	case platform.Big:
		head.BigRanNs += dt
	case platform.Tiny:
		head.TinyRanNs += dt
	default:
		head.LittleRanNs += dt
	}
	c.busyCum += dt
	if s.Prof != nil {
		s.Prof.OnRun(head.ID, head.Name, c.id, c.typ, c.cl.CurMHz, dt, now)
		// Queue membership is constant between syncs, so the same dt is
		// exact runnable-wait time for everyone behind the head.
		for _, w := range c.queue[1:] {
			s.Prof.OnWait(w.ID, w.Name, dt)
		}
	}
}

// SyncAll advances every cpu to now; callers observing busy time or task
// progress (governor, metrics) should sync first.
//
// Without deep idle, syncing an idle core only moves its lastSync, and every
// path that queues work on a core syncs it first; so idle cores are skipped
// and syncedAt remembers the sync they missed (see syncedTo).
func (s *System) SyncAll(now event.Time) {
	s.syncedAt = now
	all := s.Cfg.DeepIdleAfter > 0 || !s.Eng.Shortcuts()
	for _, c := range s.cpus {
		if len(c.queue) > 0 || all {
			s.sync(c, now)
		}
	}
}

// syncedTo returns the time cpu c is accounted through, counting the
// SyncAll calls that skipped it while idle: the lastSync an eager sync of
// every core would have left.
func (s *System) syncedTo(c *cpu) event.Time {
	return max(c.lastSync, s.syncedAt)
}

// ElidedTicks returns how many scheduler ticks this System has skipped
// while dormant instead of firing them (see sleep).
func (s *System) ElidedTicks() uint64 { return s.elided }

// InlineTicks returns how many scheduler ticks ran inside the previous
// tick's handler instead of through the event queue (see onTick).
func (s *System) InlineTicks() uint64 { return s.inline }

// ReplayedFirings returns how many Periodic firings dormant ticks ran
// inline instead of through the event queue (see sleep).
func (s *System) ReplayedFirings() uint64 { return s.replayed }

// BusyNs returns cumulative busy time of core id (valid after SyncAll).
func (s *System) BusyNs(id int) event.Time { return s.cpus[id].busyCum }

// DeepIdleNs returns cumulative deep-idle time of core id (valid after
// SyncAll); always zero when deep idle is disabled.
func (s *System) DeepIdleNs(id int) event.Time { return s.cpus[id].deepCum }

// QueueLen returns the run-queue length of core id.
func (s *System) QueueLen(id int) int { return len(s.cpus[id].queue) }

// dispatch (re)programs the completion event for cpu c's head task. A
// still-pending completion is moved in place (Handle.Reschedule, which sifts
// only the way the key moved) and gets the same ordering key as cancelling
// and re-adding it would, even when its time is unchanged. An idle core
// with no completion handle left has nothing to cancel.
func (s *System) dispatch(c *cpu, now event.Time) {
	if len(c.queue) > 0 {
		head := c.queue[0]
		head.state = Running
		for i := 1; i < len(c.queue); i++ {
			c.queue[i].state = Runnable
		}
		if r := s.rate(c, head); r > 0 {
			at := now + event.Time(head.remaining/r) + 1
			if h, ok := c.completion.Reschedule(at); ok {
				c.completion = h
			} else {
				c.completion = s.Eng.At(at, c.completeFn)
			}
			return
		}
	}
	if c.completion != (event.Handle{}) {
		c.completion.Cancel()
		c.completion = event.Handle{}
	}
}

// onCompletion handles the head task finishing its current segment.
func (s *System) onCompletion(c *cpu, now event.Time) {
	s.sync(c, now)
	if len(c.queue) == 0 {
		return
	}
	head := c.queue[0]
	if head.remaining > 0.5 {
		// Frequency changed since scheduling; not actually done.
		s.dispatch(c, now)
		return
	}
	head.remaining = 0
	head.SegmentsDone++
	if head.fifoHead < len(head.fifo) {
		head.remaining = head.fifo[head.fifoHead]
		head.fifoHead++
		if head.fifoHead == len(head.fifo) {
			head.fifo = head.fifo[:0]
			head.fifoHead = 0
		}
		if head.OnSegment != nil {
			head.OnSegment(now)
		}
		s.dispatch(c, now)
		return
	}
	// Drained: go to sleep; fold the current load into the burst footprint.
	// Shift in place (not queue[1:]) so the backing array's capacity is kept
	// for reuse; queues are a handful of tasks, so the copy is trivial.
	copy(c.queue, c.queue[1:])
	c.queue[len(c.queue)-1] = nil
	c.queue = c.queue[:len(c.queue)-1]
	c.sliceUsed = 0
	head.state = Sleeping
	s.awake--
	head.cpu = -1
	head.sleepLoad = 0.5*head.sleepLoad + 0.5*head.caughtUp().LoadF()
	if head.OnSegment != nil {
		head.OnSegment(now)
	}
	if head.OnIdle != nil {
		head.OnIdle(now)
	}
	if len(c.queue) == 0 {
		c.idleSince = now
	}
	s.dispatch(c, now)
}

// Push enqueues work (in little-core cycles) for a task, waking it if
// asleep. Zero or negative work is ignored.
func (s *System) Push(t *Task, cycles float64) {
	if cycles <= 0 {
		return
	}
	now := s.Eng.Now()
	if t.state != Sleeping {
		t.fifo = append(t.fifo, cycles)
		return
	}
	t.remaining = cycles
	t.wokeAt = now
	s.awake++
	if s.Prof != nil {
		s.Prof.OnWake(t.ID, t.Name, now)
	}
	c := s.wakeCPU(t)
	prevCPU := t.lastCPU // placement input, captured before it is overwritten
	t.cpu = c.id
	t.lastCPU = c.id
	s.sync(c, now)
	deepWake := s.Cfg.DeepIdleAfter > 0 && len(c.queue) == 0 && now-c.idleSince > s.Cfg.DeepIdleAfter
	if s.Tel != nil {
		reason := ""
		if deepWake {
			reason = telemetry.ReasonDeepIdle
		}
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindWake,
			Task: t.ID, TaskName: t.Name,
			Core: c.id, FromCore: -1, Cluster: s.SoC.Cores[c.id].Cluster,
			Reason: reason, Value: float64(t.Load()),
		})
	}
	if s.Xray != nil {
		reason := ""
		if deepWake {
			reason = telemetry.ReasonDeepIdle
		}
		s.xrayWake(t, c, prevCPU, now, reason)
	}
	if deepWake {
		// The core was in deep idle: the task pays the exit latency before
		// it can be enqueued (cpuidle wake-up cost).
		t.state = Waking
		t.wakeDst = c.id
		t.wakeEv = s.Eng.At(now+s.Cfg.DeepIdleWake, t.wakeFn)
		return
	}
	t.state = Runnable
	c.queue = append(c.queue, t)
	if len(c.queue) == 1 {
		s.dispatch(c, now)
	}
}

// onDeepWake completes a deep-idle wake after the exit latency: the task is
// enqueued on the core chosen at Push time (t.wakeDst), unless that core was
// hotplugged offline while the task paid the latency (offlining only evicts
// queued tasks, not Waking ones), in which case it is re-placed; as with
// eviction, hotplug breaks affinity to the now-offline core.
func (s *System) onDeepWake(t *Task, at event.Time) {
	dst := s.cpus[t.wakeDst]
	if !s.SoC.Cores[dst.id].Online {
		if t.pinned >= 0 && !s.SoC.Cores[t.pinned].Online {
			t.pinned = -1
		}
		dst = s.wakeCPU(t)
		prevCPU := t.lastCPU
		t.cpu = dst.id
		t.lastCPU = dst.id
		if s.Xray != nil {
			s.xrayWake(t, dst, prevCPU, at, telemetry.ReasonHotplug)
		}
	}
	s.sync(dst, at)
	t.state = Runnable
	dst.queue = append(dst.queue, t)
	if len(dst.queue) == 1 {
		s.dispatch(dst, at)
	}
}

// wakeCPU implements HMP wake placement with the same hysteresis as the
// migration rules: a task last on a little core moves up only when its load
// exceeds the up-threshold, while a task last on a big core stays
// big-preferred until its load falls below the down-threshold. Within a
// cluster pick an idle core (preferring the task's previous one), else the
// shortest queue.
func (s *System) wakeCPU(t *Task) *cpu {
	if t.pinned >= 0 {
		if !s.SoC.Cores[t.pinned].Online {
			panic(fmt.Sprintf("sched: task %d pinned to offline core %d", t.ID, t.pinned))
		}
		return s.cpus[t.pinned]
	}
	if s.WakeHook != nil {
		if c := s.pickCPU(s.WakeHook(t), t); c != nil {
			return c
		}
		// Requested type offline: fall through to the default placement.
	}
	// Tier hysteresis, mirroring the migration rules: move one tier up when
	// above the up-threshold, one tier down below the down-threshold,
	// otherwise stay on the last tier. Fresh tasks start on the little
	// tier. The tiny tier additionally requires a small burst footprint.
	tier := platform.Little.Tier()
	if t.lastCPU >= 0 {
		tier = s.cpus[t.lastCPU].typ.Tier()
	}
	switch {
	case t.Load() > s.Cfg.UpThreshold:
		tier++
	case t.Load() < s.Cfg.DownThreshold:
		tier--
	}
	if tier > 2 {
		tier = 2
	}
	if tier < 1 && t.sleepLoad >= float64(s.Cfg.TinyWakeLoad) {
		tier = 1
	}
	if tier < 0 {
		tier = 0
	}
	// Try the preferred tier, then walk outward (up first: capacity beats
	// efficiency when the preferred cluster is offline).
	for _, cand := range []int{tier, tier + 1, tier + 2, tier - 1, tier - 2} {
		if cand < 0 || cand > 2 {
			continue
		}
		if c := s.pickCPU(platform.TypeForTier(cand), t); c != nil {
			return c
		}
	}
	panic("sched: no online cores")
}

// pickCPU selects the wake/migration destination among online cores of typ:
// the task's idle previous core if eligible (cache affinity), else the first
// shortest queue in core-ID order. It iterates the cpu array directly rather
// than materializing an online-ID slice — this runs on every wake and every
// migration check, and must not allocate.
func (s *System) pickCPU(typ platform.CoreType, t *Task) *cpu {
	// Idle previous CPU wins (cache affinity).
	if t.lastCPU >= 0 {
		if c := s.cpus[t.lastCPU]; c.typ == typ && s.SoC.Cores[c.id].Online && len(c.queue) == 0 {
			return c
		}
	}
	var best *cpu
	for _, c := range s.cpus {
		if c.typ != typ || !s.SoC.Cores[c.id].Online {
			continue
		}
		if best == nil || len(c.queue) < len(best.queue) {
			best = c
		}
	}
	return best
}

// onTick is the scheduler tick: accounting, load update, HMP migration,
// intra-cluster balancing, and round-robin rotation.
//
// Two shortcuts keep the tick off the event queue without changing a bit of
// the run. When nothing else is due at or before the next tick time, the
// next tick runs inline, in this same handler: Skip(1) accounts for the
// elided re-arm and its firing and Advance moves the clock, so every later
// event keeps its eager (at, seq) key and Fired/Scheduled stay exact. And
// while the system is dormant the tick goes tickless (see sleep).
func (s *System) onTick(now event.Time) {
	for {
		s.SyncAll(now)
		s.updateLoads(now)
		if s.MigrateHook != nil {
			s.MigrateHook(now)
		} else {
			s.hmpMigrate(now)
		}
		s.balance(now)
		// Rotation and dispatch share one pass: dispatch emits nothing, so
		// the telemetry and the completions' keys come out in the same order
		// as two passes would give them.
		for _, c := range s.cpus {
			if len(c.queue) == 0 && c.sliceUsed == 0 && c.completion == (event.Handle{}) {
				continue // idle with nothing to rotate or cancel
			}
			s.rotate(c, now)
			s.dispatch(c, now)
		}
		for _, fn := range s.tickSubs {
			fn(now)
		}
		next := now + s.tick
		if s.dormant() && s.sleep(now) {
			return
		}
		if s.Eng.NextAt() <= next {
			s.tickEv = s.Eng.At(next, s.tickFn)
			return
		}
		s.Eng.Skip(1)
		s.Eng.Advance(next)
		s.inline++
		now = next
	}
}

// sleep ends a dormant tick at now and reports whether it armed the next
// tick. An eager tick while dormant would only sync idle cores, decay
// sleeping loads (which caughtUp defers anyway), and re-arm itself, so the
// ticks strictly before the next pending event are elided: counted on the
// engine with Skip, with the last one's SyncAll done directly, which leaves
// lastSync and the deep-idle sums as the eager run would.
//
// When the next pending event is a registered Periodic firing (the metrics
// sampler's, a governor's, the thermal model's), elision runs past it: the
// tick and every periodic event due before the next other event are lifted
// off the queue and their firings strictly before that event are merged in
// eager (at, seq) order: each tick skipped, each periodic firing run inline
// with the clock advanced to its time and the frequency then in effect, and
// each re-arm given the sequence number the eager run would give it. All
// are then re-queued under their eager keys. NextAt never reaches past the
// running horizon, so a RunTo pause (and a snapshot there) sees the eager
// heap.
func (s *System) sleep(now event.Time) bool {
	eng := s.Eng
	until := eng.NextAt()
	if until <= now {
		return false // another event is due at this very instant
	}
	for i := range s.periodics {
		s.periodics[i].at, s.periodics[i].seq = never, never
	}
	if liftable(s.periodics, until) == nil {
		next := now + s.tick
		if next >= until {
			return false
		}
		k := (until - 1 - now) / s.tick // ticks in (now, until)
		last := now + k*s.tick
		eng.Skip(uint64(k))
		s.ticks += uint64(k)
		s.elided += uint64(k)
		s.SyncAll(last)
		s.tickEv = eng.At(last+s.tick, s.tickFn)
		return true
	}
	// The tick joins the merge as one more periodic with no work of its
	// own; its first key is the one re-arming it now gives. Every periodic
	// event due before the next other event is lifted off the queue with
	// it; the rest stay queued and bound the merge like any other event.
	s.tickEv = eng.At(now+s.tick, s.tickFn)
	ps := append(s.periodics, periodic{ev: &s.tickEv, period: s.tick, handler: s.tickFn, at: never, seq: never})
	for p := &ps[len(ps)-1]; p != nil; p = liftable(ps, eng.NextAt()) {
		seq, _ := p.ev.EventSeq()
		p.at, p.seq = p.ev.At(), seq
		p.ev.Cancel()
	}
	horizon := eng.NextAt()
	latest, synced := now, now
	for {
		p := &ps[0]
		for i := 1; i < len(ps); i++ {
			if q := &ps[i]; q.at < p.at || q.at == p.at && q.seq < p.seq {
				p = q
			}
		}
		if p.at >= horizon {
			break
		}
		if p.fire == nil {
			s.ticks++
			s.elided++
		} else {
			if latest > synced {
				s.SyncAll(latest) // the last skipped tick's sync
			}
			eng.Advance(p.at)
			p.fire(p.at)
			s.replayed++
			synced = p.at
		}
		latest = p.at
		p.seq = eng.Scheduled() // the re-arm's key; Skip counts firing and re-arm
		eng.Skip(1)
		p.at += p.period
	}
	if latest > synced {
		s.SyncAll(latest)
	}
	for i := range ps {
		if p := &ps[i]; p.seq != never {
			*p.ev = eng.ScheduleAt(p.at, p.seq, p.handler)
		}
	}
	s.periodics = ps[:len(ps)-1]
	return true
}

// never keys a periodic event that a merge left on the queue.
const never = math.MaxInt64

// liftable returns a periodic event of ps that a merge has not lifted yet
// and that is pending at at, or nil.
func liftable(ps []periodic, at event.Time) *periodic {
	for i := range ps {
		if p := &ps[i]; p.seq == never && p.ev.Pending() && p.ev.At() == at {
			return p
		}
	}
	return nil
}

// dormant reports whether the next ticks would change nothing but the clock
// sync and the sleeping loads' decay: every task is asleep (so every run
// queue is empty), and nothing runs per tick — no MigrateHook policy (EAS,
// for one, measures busy time since its previous tick) and no OnTick
// subscriber.
func (s *System) dormant() bool {
	return s.awake == 0 && s.MigrateHook == nil && len(s.tickSubs) == 0
}

// updateLoads feeds each task's tracker with its runnable fraction of the
// tick, scaled by current/max frequency of the cluster it sits on. A task
// asleep for the whole tick contributes nothing but still decays; as in
// the kernel's load tracking, the slept periods are decayed into the
// history when the task is next read — at its wake, or by anything that
// inspects its load — rather than here (see caughtUp); on an Eager engine
// they are decayed here, every tick. A bursty task's load therefore
// converges to its duty cycle rather than its burst intensity.
func (s *System) updateLoads(now event.Time) {
	tickStart := now - s.tick
	lazy := s.Eng.Shortcuts()
	for _, t := range s.tasks {
		if lazy && t.state == Sleeping && t.ranNs == 0 {
			continue
		}
		var activeNs event.Time
		switch t.state {
		case Sleeping:
			activeNs = t.ranNs
		default:
			from := tickStart
			if t.wokeAt > from {
				from = t.wokeAt
			}
			activeNs = now - from
			if activeNs > s.tick {
				activeNs = s.tick
			}
		}
		if activeNs < 0 {
			activeNs = 0
		}
		frac := float64(activeNs) / float64(s.tick)
		fs := 1.0
		if t.lastCPU >= 0 {
			cl := s.SoC.ClusterOf(t.lastCPU)
			fs = float64(cl.CurMHz) / float64(cl.MaxMHz())
		}
		t.caughtUp().Update(frac, fs)
		t.decayed++ // current through this tick, which s.ticks counts below
		t.ranNs = 0
	}
	s.ticks++
}

// hmpMigrate applies Algorithm 1's up/down migration rules, generalized to
// one-tier-at-a-time moves across tiny/little/big clusters.
func (s *System) hmpMigrate(now event.Time) {
	for _, t := range s.tasks {
		if t.state == Sleeping || t.state == Waking || t.pinned >= 0 {
			continue
		}
		c := s.cpus[t.cpu]
		tier := c.typ.Tier()
		load := t.Load()
		switch {
		case load > s.Cfg.UpThreshold && tier < 2:
			if dst := s.pickCPU(platform.TypeForTier(tier+1), t); dst != nil {
				s.migrate(t, dst, now, telemetry.ReasonUpThreshold)
			}
		case load < s.Cfg.DownThreshold && tier > 0:
			if tier == 1 && t.sleepLoad >= float64(s.Cfg.TinyWakeLoad) {
				continue // burst footprint too large for the tiny tier
			}
			if dst := s.pickCPU(platform.TypeForTier(tier-1), t); dst != nil {
				s.migrate(t, dst, now, telemetry.ReasonDownThreshold)
			}
		}
	}
}

func (s *System) migrate(t *Task, dst *cpu, now event.Time, reason string) {
	src := s.cpus[t.cpu]
	if src == dst {
		return
	}
	s.sync(src, now)
	s.sync(dst, now)
	s.removeFromQueue(src, t)
	t.cpu = dst.id
	t.lastCPU = dst.id
	t.Migrations++
	dst.queue = append(dst.queue, t)
	if s.Prof != nil {
		s.Prof.OnMigration(t.ID, t.Name, src.typ, dst.typ, reason)
	}
	if s.Tel != nil {
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindMigration,
			Task: t.ID, TaskName: t.Name,
			Core: dst.id, FromCore: src.id, Cluster: s.SoC.Cores[dst.id].Cluster,
			Reason: reason, Value: float64(t.Load()),
		})
	}
	if s.Xray != nil {
		s.xrayMigrate(t, src, dst, now, reason)
	}
	s.dispatch(src, now)
	s.dispatch(dst, now)
}

func (s *System) removeFromQueue(c *cpu, t *Task) {
	for i, q := range c.queue {
		if q == t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			if i == 0 {
				c.sliceUsed = 0
			}
			return
		}
	}
	panic(fmt.Sprintf("sched: task %d not on cpu %d", t.ID, c.id))
}

// balance performs intra-cluster load balancing: idle cores pull a waiting
// task from the most loaded core of their own cluster (traditional load
// balancing across same-type cores, §IV-B).
func (s *System) balance(now event.Time) {
	// Fast path: nothing to pull anywhere. On interactive workloads most
	// ticks have no queue deeper than one, and this scan is a fraction of
	// the full idle-core x busiest-core product below.
	overloaded := false
	for _, c := range s.cpus {
		if len(c.queue) > 1 {
			overloaded = true
			break
		}
	}
	if !overloaded {
		return
	}
	for _, c := range s.cpus {
		if !s.SoC.Cores[c.id].Online || len(c.queue) != 0 {
			continue
		}
		var busiest *cpu
		for _, o := range s.cpus {
			if o.typ != c.typ || o == c || !s.SoC.Cores[o.id].Online {
				continue
			}
			if len(o.queue) > 1 && (busiest == nil || len(o.queue) > len(busiest.queue)) {
				busiest = o
			}
		}
		if busiest == nil {
			continue
		}
		// Pull the last waiting unpinned task.
		var t *Task
		for i := len(busiest.queue) - 1; i >= 1; i-- {
			if busiest.queue[i].pinned < 0 {
				t = busiest.queue[i]
				break
			}
		}
		if t == nil {
			continue
		}
		s.migrate(t, c, now, telemetry.ReasonBalance)
		t.Migrations-- // intra-cluster moves are not HMP migrations
	}
}

// rotate implements round-robin on cpu c: after a full tick of execution
// with other tasks waiting, the head yields.
func (s *System) rotate(c *cpu, now event.Time) {
	if len(c.queue) < 2 {
		c.sliceUsed = 0
		return
	}
	c.sliceUsed++
	if c.sliceUsed >= 1 { // 1-tick quantum
		head := c.queue[0]
		copy(c.queue, c.queue[1:])
		c.queue[len(c.queue)-1] = head
		c.sliceUsed = 0
		if s.Tel != nil {
			s.Tel.Emit(telemetry.Event{
				At: now, Kind: telemetry.KindPreempt,
				Task: head.ID, TaskName: head.Name,
				Core: c.id, FromCore: -1, Cluster: s.SoC.Cores[c.id].Cluster,
				Reason: telemetry.ReasonSlice,
			})
		}
	}
}

// MoveToType migrates a non-sleeping, unpinned task to the least-loaded
// online core of the given type; it is a no-op if the task is already
// there, asleep, pinned, or the type has no online cores. Intended for
// MigrateHook policies.
func (s *System) MoveToType(t *Task, typ platform.CoreType) {
	if t.state == Sleeping || t.state == Waking || t.pinned >= 0 {
		return
	}
	if s.cpus[t.cpu].typ == typ {
		return
	}
	if dst := s.pickCPU(typ, t); dst != nil {
		s.migrate(t, dst, s.Eng.Now(), telemetry.ReasonPolicy)
	}
}

// BurstFootprint returns the task's EWMA load at sleep transitions — the
// signal policies use to classify small background work.
func (t *Task) BurstFootprint() float64 { return t.sleepLoad }

// OnCPUType returns the core type the task currently sits on, or Little for
// sleeping tasks (their wake placement will decide).
func (s *System) OnCPUType(t *Task) platform.CoreType {
	if t.cpu < 0 {
		return platform.Little
	}
	return s.cpus[t.cpu].typ
}

// SetCoreOnline hotplugs a core at runtime: offlining first evicts every
// queued task to another online core (breaking affinity if necessary, as
// the kernel does), onlining simply re-enables placement. It returns the
// platform-constraint error, if any.
func (s *System) SetCoreOnline(id int, online bool) error {
	now := s.Eng.Now()
	c := s.cpus[id]
	s.sync(c, now)
	if online {
		if err := s.SoC.SetOnline(id, true); err != nil {
			return err
		}
		c.idleSince = now
		if s.Tel != nil {
			s.Tel.Emit(telemetry.Event{
				At: now, Kind: telemetry.KindHotplug,
				Task: -1, Core: id, FromCore: -1, Cluster: s.SoC.Cores[id].Cluster,
				Reason: telemetry.ReasonOnline,
			})
		}
		if s.Xray != nil {
			s.xrayHotplug(id, true, 0, now, telemetry.ReasonOnline)
		}
		return nil
	}
	if err := s.SoC.SetOnline(id, false); err != nil {
		return err
	}
	if s.Tel != nil {
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindHotplug,
			Task: -1, Core: id, FromCore: -1, Cluster: s.SoC.Cores[id].Cluster,
			Reason: telemetry.ReasonOffline,
		})
	}
	if s.Xray != nil {
		s.xrayHotplug(id, false, len(c.queue), now, telemetry.ReasonOffline)
	}
	// Evict the queue: prefer a same-type online core, else any online core.
	for len(c.queue) > 0 {
		t := c.queue[0]
		dst := s.pickCPU(c.typ, t)
		if dst == nil || dst == c {
			for _, cand := range s.cpus {
				if cand != c && s.SoC.Cores[cand.id].Online {
					dst = cand
					break
				}
			}
		}
		if dst == nil || dst == c {
			// Nothing else online (impossible given the little-core
			// constraint, but fail safe): bring the core back.
			_ = s.SoC.SetOnline(id, true)
			return nil
		}
		t.pinned = -1 // hotplug breaks affinity
		s.migrate(t, dst, now, telemetry.ReasonHotplug)
		t.Migrations--
	}
	s.dispatch(c, now)
	return nil
}

// SetClusterFreq changes a cluster's frequency (used by governors),
// re-synchronizing and re-dispatching affected cores. Returns the frequency
// actually set (clamped to the table).
func (s *System) SetClusterFreq(clusterID, mhz int) int {
	now := s.Eng.Now()
	cl := &s.SoC.Clusters[clusterID]
	prev := cl.CurMHz
	for _, id := range cl.CoreIDs {
		s.sync(s.cpus[id], now)
	}
	got := s.SoC.SetFreq(clusterID, mhz)
	if s.Tel != nil && got != prev {
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindFreq,
			Task: -1, Core: -1, FromCore: -1, Cluster: clusterID,
			PrevMHz: prev, MHz: got,
		})
	}
	for _, id := range cl.CoreIDs {
		s.dispatch(s.cpus[id], now)
	}
	return got
}

// CoreBusyFraction returns core id's busy fraction between two cumulative
// busy readings over the interval; a convenience for governors/metrics.
func CoreBusyFraction(prevBusy, curBusy, interval event.Time) float64 {
	if interval <= 0 || curBusy == prevBusy {
		return 0 // an idle interval needs no division
	}
	f := float64(curBusy-prevBusy) / float64(interval)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
