package core

import (
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/snapshot"
	"biglittle/internal/workload"
)

// newEagerSim is the equivalence tests' one seam: it assembles cfg like
// newSim, then turns off every engine shortcut before the first event
// fires. No tick is elided or run inline, no periodic firing is replayed,
// every SyncAll syncs idle cores too, every tick decays every sleeping
// task's load, and Reschedule sifts both ways, so the run is the plain
// event-by-event reference the shortcuts must reproduce bit for bit.
func newEagerSim(cfg Config, rec *workload.Recorder) *Sim {
	sim := newSim(cfg, rec)
	sim.eng.Eager()
	return sim
}

// Trial is everything the kernel's shortcuts must leave unchanged, plus
// how often each of them fired.
type Trial struct {
	Result           Result
	Fired, Scheduled uint64
	Blobs            [][]byte // encoded snapshots at 25/50/75% of the run
	Elided, Inline   uint64   // scheduler ticks kept off the event queue
	Replayed         uint64   // periodic firings run inline by dormant ticks
}

// Shortcuts is how many ticks and periodic firings the run kept off the
// event queue.
func (tr Trial) Shortcuts() uint64 { return tr.Elided + tr.Inline + tr.Replayed }

// RunTrial runs cfg to the end in quarters, encoding a snapshot at each
// pause (unless an auditor, whose events a snapshot cannot hold, is
// attached); with eager set it runs the reference with every shortcut off.
func RunTrial(t testing.TB, cfg Config, eager bool) Trial {
	t.Helper()
	cfg = cfg.Normalized()
	newRun := newSim
	if eager {
		newRun = newEagerSim
	}
	sim := newRun(cfg, workload.NewRecorder())
	var out Trial
	for q := event.Time(1); q <= 3; q++ {
		sim.RunTo(cfg.Duration * q / 4)
		if cfg.Check != nil {
			continue
		}
		st, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		out.Blobs = append(out.Blobs, blob)
	}
	sim.RunTo(cfg.Duration)
	out.Fired, out.Scheduled = sim.eng.Fired(), sim.eng.Scheduled()
	out.Elided = sim.sys.ElidedTicks()
	out.Inline = sim.sys.InlineTicks()
	out.Replayed = sim.sys.ReplayedFirings()
	out.Result = sim.Finish()
	return out
}
