package sched

import (
	"fmt"

	"biglittle/internal/event"
)

// Snapshot/Restore of the scheduler for whole-simulation fork (DESIGN.md §9).
// Capture is a pure read of the lazily-synced state — it deliberately does
// NOT SyncAll first, because splitting an accounting interval at the capture
// point would change floating-point accumulation order versus an
// uninterrupted run and break byte-identity. Lazily decayed loads are the
// exception that is safe: catching a sleeping task's tracker up applies the
// same per-tick steps the next read would, so each task's load is captured
// current and Restore needs no per-task decay position. Pending engine events
// (completions, the tick, in-flight deep-idle wakes) are captured as
// (at, seq) keys and re-bound onto the once-bound handlers at restore.

// TaskSnap is the dynamic state of one Task. Static identity (ID, Name,
// Speedup, callbacks) is reconstructed by re-running the workload build.
type TaskSnap struct {
	State     State      `json:"state"`
	CPU       int        `json:"cpu"`
	Pinned    int        `json:"pin"`
	LastCPU   int        `json:"last"`
	Remaining float64    `json:"rem"`
	Fifo      []float64  `json:"fifo,omitempty"`
	RanNs     event.Time `json:"ran"`
	WokeAt    event.Time `json:"woke"`
	SleepLoad float64    `json:"sleepLoad"`
	Load      float64    `json:"load"`

	TotalWork    float64    `json:"work"`
	Migrations   int        `json:"migr"`
	SegmentsDone int        `json:"segs"`
	BigRanNs     event.Time `json:"bigNs"`
	LittleRanNs  event.Time `json:"littleNs"`
	TinyRanNs    event.Time `json:"tinyNs"`
	EnergyMJ     float64    `json:"energyMJ"`

	// In-flight deep-idle wake, if any.
	WakePending bool       `json:"wakeP,omitempty"`
	WakeAt      event.Time `json:"wakeAt,omitempty"`
	WakeSeq     uint64     `json:"wakeSeq,omitempty"`
	WakeDst     int        `json:"wakeDst,omitempty"`
}

// CPUSnap is the dynamic state of one run queue.
type CPUSnap struct {
	Queue     []int      `json:"q,omitempty"` // task IDs, head first
	LastSync  event.Time `json:"sync"`
	BusyCum   event.Time `json:"busy"`
	SliceUsed int        `json:"slice"`
	IdleSince event.Time `json:"idle"`
	DeepCum   event.Time `json:"deep"`

	// Pending completion event for the head task, if any.
	CompPending bool       `json:"compP,omitempty"`
	CompAt      event.Time `json:"compAt,omitempty"`
	CompSeq     uint64     `json:"compSeq,omitempty"`
}

// Snap is the scheduler's full dynamic state.
type Snap struct {
	Tasks   []TaskSnap `json:"tasks"`
	CPUs    []CPUSnap  `json:"cpus"`
	Started bool       `json:"started"`

	// The pending scheduler tick (always pending once Started).
	TickPending bool       `json:"tickP,omitempty"`
	TickAt      event.Time `json:"tickAt,omitempty"`
	TickSeq     uint64     `json:"tickSeq,omitempty"`
}

// PendingEvents returns how many engine events the snapshot accounts for —
// used by capture to prove every queued event belongs to some subsystem.
func (sn *Snap) PendingEvents() int {
	n := 0
	if sn.TickPending {
		n++
	}
	for i := range sn.CPUs {
		if sn.CPUs[i].CompPending {
			n++
		}
	}
	for i := range sn.Tasks {
		if sn.Tasks[i].WakePending {
			n++
		}
	}
	return n
}

// Snapshot captures the scheduler's dynamic state. It changes nothing
// observable: the only write is the deferred decay of sleeping tasks'
// loads, which any later read would apply identically.
func (s *System) Snapshot() Snap {
	sn := Snap{Started: s.started}
	if seq, ok := s.tickEv.EventSeq(); ok {
		sn.TickPending, sn.TickAt, sn.TickSeq = true, s.tickEv.At(), seq
	}
	for _, t := range s.tasks {
		ts := TaskSnap{
			State:     t.state,
			CPU:       t.cpu,
			Pinned:    t.pinned,
			LastCPU:   t.lastCPU,
			Remaining: t.remaining,
			RanNs:     t.ranNs,
			WokeAt:    t.wokeAt,
			SleepLoad: t.sleepLoad,
			Load:      t.caughtUp().LoadF(),

			TotalWork:    t.TotalWork,
			Migrations:   t.Migrations,
			SegmentsDone: t.SegmentsDone,
			BigRanNs:     t.BigRanNs,
			LittleRanNs:  t.LittleRanNs,
			TinyRanNs:    t.TinyRanNs,
			EnergyMJ:     t.EnergyMJ,
		}
		if pend := t.fifo[t.fifoHead:]; len(pend) > 0 {
			ts.Fifo = append([]float64(nil), pend...)
		}
		if seq, ok := t.wakeEv.EventSeq(); ok {
			ts.WakePending, ts.WakeAt, ts.WakeSeq = true, t.wakeEv.At(), seq
			ts.WakeDst = t.wakeDst
		}
		sn.Tasks = append(sn.Tasks, ts)
	}
	for _, c := range s.cpus {
		cs := CPUSnap{
			LastSync:  s.syncedTo(c),
			BusyCum:   c.busyCum,
			SliceUsed: c.sliceUsed,
			IdleSince: c.idleSince,
			DeepCum:   c.deepCum,
		}
		for _, t := range c.queue {
			cs.Queue = append(cs.Queue, t.ID)
		}
		if seq, ok := c.completion.EventSeq(); ok {
			cs.CompPending, cs.CompAt, cs.CompSeq = true, c.completion.At(), seq
		}
		sn.CPUs = append(sn.CPUs, cs)
	}
	return sn
}

// Restore loads sn into a freshly built system whose tasks were re-created
// (in the same order) by a replayed workload build. The engine must already
// be Reset to the capture point; pending events are re-bound with their
// original (at, seq) keys so the firing order is preserved exactly.
func (s *System) Restore(sn *Snap) error {
	if len(sn.Tasks) != len(s.tasks) {
		return fmt.Errorf("sched: snapshot has %d tasks, system has %d", len(sn.Tasks), len(s.tasks))
	}
	if len(sn.CPUs) != len(s.cpus) {
		return fmt.Errorf("sched: snapshot has %d cpus, system has %d", len(sn.CPUs), len(s.cpus))
	}
	s.awake = 0
	for i, t := range s.tasks {
		ts := &sn.Tasks[i]
		t.state = ts.State
		if t.state != Sleeping {
			s.awake++
		}
		t.cpu = ts.CPU
		t.pinned = ts.Pinned
		t.lastCPU = ts.LastCPU
		t.remaining = ts.Remaining
		t.fifo = append(t.fifo[:0], ts.Fifo...)
		t.fifoHead = 0
		t.ranNs = ts.RanNs
		t.wokeAt = ts.WokeAt
		t.sleepLoad = ts.SleepLoad
		t.tracker.Set(ts.Load) // captured caught up
		t.decayed = s.ticks
		t.TotalWork = ts.TotalWork
		t.Migrations = ts.Migrations
		t.SegmentsDone = ts.SegmentsDone
		t.BigRanNs = ts.BigRanNs
		t.LittleRanNs = ts.LittleRanNs
		t.TinyRanNs = ts.TinyRanNs
		t.EnergyMJ = ts.EnergyMJ
		if ts.WakePending {
			if ts.WakeDst < 0 || ts.WakeDst >= len(s.cpus) {
				return fmt.Errorf("sched: task %d wake destination %d out of range", i, ts.WakeDst)
			}
			t.wakeDst = ts.WakeDst
			t.wakeEv = s.Eng.ScheduleAt(ts.WakeAt, ts.WakeSeq, t.wakeFn)
		}
	}
	for i, c := range s.cpus {
		cs := &sn.CPUs[i]
		c.queue = c.queue[:0]
		for _, id := range cs.Queue {
			if id < 0 || id >= len(s.tasks) {
				return fmt.Errorf("sched: cpu %d queue references unknown task %d", i, id)
			}
			c.queue = append(c.queue, s.tasks[id])
		}
		c.lastSync = cs.LastSync
		c.busyCum = cs.BusyCum
		c.sliceUsed = cs.SliceUsed
		c.idleSince = cs.IdleSince
		c.deepCum = cs.DeepCum
		if cs.CompPending {
			c.completion = s.Eng.ScheduleAt(cs.CompAt, cs.CompSeq, c.completeFn)
		}
	}
	s.syncedAt = 0 // every LastSync was captured through syncedTo
	s.started = sn.Started
	if sn.TickPending {
		s.tickEv = s.Eng.ScheduleAt(sn.TickAt, sn.TickSeq, s.tickFn)
	}
	return nil
}
