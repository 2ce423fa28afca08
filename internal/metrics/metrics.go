// Package metrics implements the measurement methodology of §V and §VI: a
// 10 ms state sampler (the paper checks CPU states "at every 10ms") feeding
// the thread-level-parallelism matrix of Table IV, the Blake-et-al. TLP
// metric of Table III, the frequency-residency distributions of Figures 9
// and 10, the six-state efficiency decomposition of Table V, and whole-system
// energy via the power model. Frame and scenario performance trackers provide
// the FPS and latency metrics of Table II.
package metrics

import (
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/profile"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
)

// SampleInterval is the paper's state-sampling period.
const SampleInterval = 10 * event.Millisecond

// EffState is one of Table V's six utilization-efficiency categories.
type EffState int

const (
	// EffMin: load under 50% but the core is already a little core at the
	// minimum frequency — capacity cannot be reduced further.
	EffMin EffState = iota
	// EffLt50: utilization below 50% with headroom to scale down.
	EffLt50
	// EffLt70: utilization in [50%, 70%).
	EffLt70
	// EffMid: utilization in [70%, 95%).
	EffMid
	// EffGt95: utilization at or above 95% — capacity under-provisioned.
	EffGt95
	// EffFull: a big core at maximum frequency saturated; the load exceeds
	// any available CPU capacity.
	EffFull
	effStates
)

func (e EffState) String() string {
	switch e {
	case EffMin:
		return "Min"
	case EffLt50:
		return "<50%"
	case EffLt70:
		return "<70%"
	case EffMid:
		return "70-95%"
	case EffGt95:
		return ">95%"
	default:
		return "Full"
	}
}

// Sampler observes the system every SampleInterval and accumulates the
// paper's characterization metrics. Attach with Start before running.
//
// It reports through the observers on its sched.System: the telemetry
// collector receives a KindPower meter snapshot (Value in mW) every
// SampleInterval — the Monsoon-style power counter track — and the profiler
// every power-model interval's per-core power terms (the same ones fed to
// the meter) so it can attribute the interval's energy to the tasks that
// ran in it.
type Sampler struct {
	sys *sched.System
	pw  power.Params

	lastBusy  []event.Time
	lastDeep  []event.Time
	profCores []profile.CorePower // reused per-sample buffer for the profiler

	// Matrix[b][l] counts samples with exactly b big and l little cores
	// active (Table IV).
	Matrix [5][5]int
	// Samples is the total number of 10 ms observations.
	Samples int
	// ActiveCoreSamples counts (core, sample) pairs with non-zero
	// utilization, split per state for Table V.
	Eff [effStates]int
	// TinySamples counts (tiny core, sample) pairs with non-zero
	// utilization — used by the tiny-core extension study.
	TinySamples int
	// utilSum accumulates per-core-type utilization for averages
	// (summed over online cores and samples).
	utilSum   map[platform.CoreType]float64
	utilCount map[platform.CoreType]int

	// Residency accumulates active time per (core type, MHz) — Figures 9/10
	// count only periods where the cluster had at least one active core.
	Residency map[platform.CoreType]map[int]event.Time

	meter power.Meter

	sampleFn event.Handler // cached method value: evaluating m.onSample allocates
	sampleEv event.Handle  // the pending sample (retained for snapshot capture)
	// clusterActive is reused across samples, indexed by cluster ID.
	clusterActive []bool
}

// NewSampler creates a sampler over sys using power model pw.
func NewSampler(sys *sched.System, pw power.Params) *Sampler {
	m := &Sampler{
		sys:      sys,
		pw:       pw,
		lastBusy: make([]event.Time, len(sys.SoC.Cores)),
		lastDeep: make([]event.Time, len(sys.SoC.Cores)),
		Residency: map[platform.CoreType]map[int]event.Time{
			platform.Little: {},
			platform.Big:    {},
			platform.Tiny:   {},
		},
		utilSum:       map[platform.CoreType]float64{},
		utilCount:     map[platform.CoreType]int{},
		clusterActive: make([]bool, len(sys.SoC.Clusters)),
	}
	m.sampleFn = m.onSample
	return m
}

// Start schedules periodic sampling.
func (m *Sampler) Start() {
	m.sampleEv = m.sys.Eng.After(SampleInterval, m.sampleFn)
}

func (m *Sampler) onSample(now event.Time) {
	m.sys.SyncAll(now)
	prof := m.sys.Prof
	soc := m.sys.SoC
	little, big := 0, 0
	clusterActive := m.clusterActive
	clear(clusterActive)
	// Whole-system power accumulates exactly as power.SystemPowerMW would
	// (base rail first, then each online core in ID order) so the meter
	// reading is unchanged; keeping the per-core terms lets the profiler
	// attribute the very same energy the meter integrates.
	mw := m.pw.BaseMW
	m.profCores = m.profCores[:0]

	for id := range soc.Cores {
		core := &soc.Cores[id]
		if !core.Online {
			m.lastBusy[id] = m.sys.BusyNs(id)
			continue
		}
		busy := m.sys.BusyNs(id)
		util := sched.CoreBusyFraction(m.lastBusy[id], busy, SampleInterval)
		m.lastBusy[id] = busy
		deep := m.sys.DeepIdleNs(id)
		deepFrac := sched.CoreBusyFraction(m.lastDeep[id], deep, SampleInterval)
		m.lastDeep[id] = deep

		cl := soc.ClusterOf(id)
		cmw := m.pw.CorePowerDeepMW(core.Type, cl.CurMHz, util, deepFrac)
		mw += cmw
		if prof != nil {
			m.profCores = append(m.profCores, profile.CorePower{Core: id, MW: cmw})
		}
		m.utilSum[core.Type] += util
		m.utilCount[core.Type]++

		if util <= 0 {
			continue
		}
		clusterActive[cl.ID] = true
		switch core.Type {
		case platform.Big:
			big++
		case platform.Tiny:
			m.TinySamples++
			little++ // tiny cores occupy the little axis of Table IV
		default:
			little++
		}
		m.Eff[classify(core.Type, cl, util)]++
	}

	if big > 4 {
		big = 4
	}
	if little > 4 {
		little = 4
	}
	m.Matrix[big][little]++
	m.Samples++

	for ci := range soc.Clusters {
		cl := &soc.Clusters[ci]
		if clusterActive[cl.ID] {
			m.Residency[cl.Type][cl.CurMHz] += SampleInterval
		}
	}

	m.meter.Add(SampleInterval, mw)
	if prof != nil {
		prof.OnPowerInterval(SampleInterval, m.pw.BaseMW, m.profCores)
	}
	if tel := m.sys.Tel; tel != nil {
		tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindPower,
			Task: -1, Core: -1, FromCore: -1, Cluster: -1,
			Value: mw,
		})
	}
	m.sampleEv = m.sys.Eng.After(SampleInterval, m.sampleFn)
}

func classify(t platform.CoreType, cl *platform.Cluster, util float64) EffState {
	switch {
	case util >= 0.995 && t == platform.Big && cl.CurMHz == cl.MaxMHz():
		return EffFull
	case util >= 0.95:
		return EffGt95
	case util >= 0.70:
		return EffMid
	case util >= 0.50:
		return EffLt70
	case t == platform.Little && cl.CurMHz == cl.MinMHz():
		return EffMin
	default:
		return EffLt50
	}
}

// AvgUtil returns the mean utilization of online cores of the given type
// across all samples — the paper's "low CPU utilization" claim quantified.
func (m *Sampler) AvgUtil(t platform.CoreType) float64 {
	if m.utilCount[t] == 0 {
		return 0
	}
	return m.utilSum[t] / float64(m.utilCount[t])
}

// TinyActivePct returns the share of active core-samples served by tiny
// cores (0 on the standard two-cluster platform).
func (m *Sampler) TinyActivePct() float64 {
	total := 0
	for _, n := range m.Eff {
		total += n
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(m.TinySamples) / float64(total)
}

// AvgPowerMW returns average system power over the sampled run.
func (m *Sampler) AvgPowerMW() float64 { return m.meter.AvgMW() }

// EnergyMJ returns total system energy over the sampled run.
func (m *Sampler) EnergyMJ() float64 { return m.meter.EnergyMJ() }

// TLPReport is a Table III row.
type TLPReport struct {
	IdlePct       float64 // samples with no active core
	LittleOnlyPct float64 // non-idle samples with only little cores active
	BigPct        float64 // non-idle samples with >= 1 big core active
	TLP           float64 // Blake et al.: average active cores over non-idle samples
}

// TLP computes the Table III row from the accumulated matrix.
func (m *Sampler) TLP() TLPReport {
	var r TLPReport
	if m.Samples == 0 {
		return r
	}
	idle := m.Matrix[0][0]
	nonIdle := m.Samples - idle
	r.IdlePct = 100 * float64(idle) / float64(m.Samples)
	if nonIdle == 0 {
		return r
	}
	weighted, littleOnly, bigAny := 0, 0, 0
	for b := 0; b <= 4; b++ {
		for l := 0; l <= 4; l++ {
			n := m.Matrix[b][l]
			if b == 0 && l == 0 {
				continue
			}
			weighted += n * (b + l)
			if b == 0 {
				littleOnly += n
			} else {
				bigAny += n
			}
		}
	}
	r.LittleOnlyPct = 100 * float64(littleOnly) / float64(nonIdle)
	r.BigPct = 100 * float64(bigAny) / float64(nonIdle)
	r.TLP = float64(weighted) / float64(nonIdle)
	return r
}

// MatrixPct returns Table IV: the percentage of samples in each
// (big, little) active-core cell, including the idle cell [0][0].
func (m *Sampler) MatrixPct() [5][5]float64 {
	var out [5][5]float64
	if m.Samples == 0 {
		return out
	}
	for b := range m.Matrix {
		for l := range m.Matrix[b] {
			out[b][l] = 100 * float64(m.Matrix[b][l]) / float64(m.Samples)
		}
	}
	return out
}

// EffPct returns Table V: the percentage of active core-samples in each of
// the six efficiency states, ordered Min, <50%, <70%, 70-95%, >95%, Full.
func (m *Sampler) EffPct() [effStates]float64 {
	var out [effStates]float64
	total := 0
	for _, n := range m.Eff {
		total += n
	}
	if total == 0 {
		return out
	}
	for i, n := range m.Eff {
		out[i] = 100 * float64(n) / float64(total)
	}
	return out
}

// ResidencyPct returns the Figure 9/10 distribution for one core type:
// fraction of active time at each table frequency, in ascending frequency
// order aligned with freqs.
func (m *Sampler) ResidencyPct(t platform.CoreType, freqs []int) []float64 {
	var total event.Time
	for _, dt := range m.Residency[t] {
		total += dt
	}
	out := make([]float64, len(freqs))
	if total == 0 {
		return out
	}
	for i, f := range freqs {
		out[i] = 100 * float64(m.Residency[t][f]) / float64(total)
	}
	return out
}

// FPSTracker measures frame performance for the FPS-oriented applications:
// average FPS over the whole run and the worst 1-second window (the paper's
// "minimum FPS").
type FPSTracker struct {
	frames []event.Time
}

// FrameDone records a frame completion.
func (f *FPSTracker) FrameDone(now event.Time) { f.frames = append(f.frames, now) }

// Times returns the recorded frame-completion timestamps in order — the raw
// material for frame-time distributions.
func (f *FPSTracker) Times() []event.Time { return f.frames }

// Count returns total frames rendered.
func (f *FPSTracker) Count() int { return len(f.frames) }

// Avg returns frames per second over duration.
func (f *FPSTracker) Avg(duration event.Time) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(len(f.frames)) / duration.Seconds()
}

// CountIn returns frames completed in [from, to).
func (f *FPSTracker) CountIn(from, to event.Time) int {
	n := 0
	for _, t := range f.frames {
		if t >= from && t < to {
			n++
		}
	}
	return n
}

// Min returns the lowest FPS over any aligned 1-second window of the run.
func (f *FPSTracker) Min(duration event.Time) float64 {
	windows := int(duration / event.Second)
	if windows == 0 {
		return f.Avg(duration)
	}
	counts := make([]int, windows)
	for _, t := range f.frames {
		w := int(t / event.Second)
		if w >= windows {
			w = windows - 1
		}
		counts[w]++
	}
	min := counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
	}
	return float64(min)
}

// LatencyTracker accumulates interaction latencies for the latency-oriented
// applications: each user action's start-to-completion time.
type LatencyTracker struct {
	Total event.Time
	Max   event.Time
	N     int

	// Observe, if set, additionally receives each individual latency —
	// used to feed a telemetry histogram without storing the distribution
	// here.
	Observe func(d event.Time)
}

// Record adds one completed interaction.
func (l *LatencyTracker) Record(d event.Time) {
	l.Total += d
	if d > l.Max {
		l.Max = d
	}
	l.N++
	if l.Observe != nil {
		l.Observe(d)
	}
}

// Mean returns the average interaction latency.
func (l *LatencyTracker) Mean() event.Time {
	if l.N == 0 {
		return 0
	}
	return l.Total / event.Time(l.N)
}
