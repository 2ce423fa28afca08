package altsched

import (
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
)

// EAS implements energy-aware scheduling, the approach that replaced HMP in
// mainline Linux after the paper's era: instead of fixed load thresholds,
// each loaded task is placed on the cluster that can serve its demand at
// the lowest energy per unit of work, computed from the platform's actual
// power model at the clusters' current frequencies.
type EAS struct {
	sys *sched.System
	pw  power.Params
	// capacityThreshold is the load above which a little core cannot serve
	// the task and capacity overrides efficiency (with headroom).
	capacityThreshold int

	// Overutilization escape hatch (as in mainline EAS): when any little
	// core saturates, energy-aware placement is suspended and loaded tasks
	// spill to the big cluster until the pressure clears.
	lastBusy      []event.Time
	lastCheck     event.Time
	overUtilUntil event.Time
}

// NewEAS attaches the policy to sys using pw as the energy model.
func NewEAS(sys *sched.System, pw power.Params) *EAS {
	e := &EAS{
		sys: sys, pw: pw, capacityThreshold: 850,
		lastBusy: make([]event.Time, len(sys.SoC.Cores)),
	}
	sys.MigrateHook = e.rebalance
	sys.WakeHook = e.wakeType
	return e
}

// overutilized updates and reports the escape-hatch state: any online
// little core above 90% utilization since the last check latches the state
// for 50 ms.
func (e *EAS) overutilized(now event.Time) bool {
	interval := now - e.lastCheck
	if interval > 0 {
		for id := range e.sys.SoC.Cores {
			if c := &e.sys.SoC.Cores[id]; c.Type != platform.Little || !c.Online {
				continue
			}
			busy := e.sys.BusyNs(id)
			if sched.CoreBusyFraction(e.lastBusy[id], busy, interval) > 0.9 {
				e.overUtilUntil = now + 50*event.Millisecond
			}
			e.lastBusy[id] = busy
		}
		// Keep the non-little counters fresh too.
		for id := range e.sys.SoC.Cores {
			e.lastBusy[id] = e.sys.BusyNs(id)
		}
		e.lastCheck = now
	}
	return now < e.overUtilUntil
}

// energyPerGc returns the modeled energy cost (mJ per giga-cycle of task
// work) of running the task on the given cluster type at its current
// frequency. Big-core speedup reduces the big cluster's cost proportionally.
func (e *EAS) energyPerGc(t *sched.Task, typ platform.CoreType) float64 {
	cl := e.sys.SoC.ClusterByType(typ)
	if cl == nil || e.sys.SoC.OnlineCount(typ) == 0 {
		return 1e18
	}
	mw := e.pw.MarginalMW(typ, cl.CurMHz)
	rate := float64(cl.CurMHz) * 1e6 // cycles per second of task work
	switch typ {
	case platform.Big:
		rate *= t.Speedup
	case platform.Tiny:
		rate *= sched.TinyPerfScale
	}
	return mw / (rate / 1e9) // mW per Gc/s == mJ per Gc
}

// place returns the energy-optimal feasible cluster type for a task.
func (e *EAS) place(t *sched.Task) platform.CoreType {
	if t.Load() > e.capacityThreshold {
		// Doesn't fit a little core even at max frequency: capacity first.
		if e.sys.SoC.OnlineCount(platform.Big) > 0 {
			return platform.Big
		}
		return platform.Little
	}
	if e.energyPerGc(t, platform.Big) < e.energyPerGc(t, platform.Little) {
		return platform.Big
	}
	return platform.Little
}

func (e *EAS) wakeType(t *sched.Task) platform.CoreType {
	return e.place(t)
}

func (e *EAS) rebalance(now event.Time) {
	over := e.overutilized(now)
	for _, t := range e.sys.Tasks() {
		if t.CurState() == sched.Sleeping || t.CurState() == sched.Waking {
			continue
		}
		if t.Load() < minActiveLoad {
			// Background slivers stay off the big cluster.
			if e.sys.OnCPUType(t) == platform.Big {
				e.sys.MoveToType(t, platform.Little)
			}
			continue
		}
		if over && t.Load() >= 400 && e.sys.SoC.OnlineCount(platform.Big) > 0 {
			// Escape hatch: capacity first until the little cluster calms.
			e.sys.MoveToType(t, platform.Big)
			continue
		}
		e.sys.MoveToType(t, e.place(t))
	}
}
