package metrics

import (
	"fmt"
	"sort"

	"biglittle/internal/event"
	"biglittle/internal/platform"
)

// Snap is the sampler's accumulated state for whole-simulation snapshot.
// Maps are flattened into sorted slices (and the per-type accumulators into
// fixed arrays indexed by platform.CoreType) so the encoded form is
// deterministic byte-for-byte.
type Snap struct {
	LastBusy []event.Time `json:"lastBusy"`
	LastDeep []event.Time `json:"lastDeep"`

	Matrix      [5][5]int  `json:"matrix"`
	Samples     int        `json:"samples"`
	Eff         [6]int     `json:"eff"`
	TinySamples int        `json:"tiny"`
	UtilSum     [3]float64 `json:"utilSum"`   // indexed by CoreType
	UtilCount   [3]int     `json:"utilCount"` // indexed by CoreType

	Residency []ResidencyEntry `json:"residency,omitempty"`

	EnergyMJ float64    `json:"energyMJ"`
	Elapsed  event.Time `json:"elapsed"`

	SamplePending bool       `json:"sampleP,omitempty"`
	SampleAt      event.Time `json:"sampleAt,omitempty"`
	SampleSeq     uint64     `json:"sampleSeq,omitempty"`
}

// ResidencyEntry is one (core type, frequency) → active time cell.
type ResidencyEntry struct {
	Type platform.CoreType `json:"type"`
	MHz  int               `json:"mhz"`
	Ns   event.Time        `json:"ns"`
}

// PendingEvents returns how many engine events the snapshot accounts for.
func (sn *Snap) PendingEvents() int {
	if sn.SamplePending {
		return 1
	}
	return 0
}

// Snapshot captures the sampler's accumulated state without modifying it.
func (m *Sampler) Snapshot() Snap {
	sn := Snap{
		LastBusy:    append([]event.Time(nil), m.lastBusy...),
		LastDeep:    append([]event.Time(nil), m.lastDeep...),
		Matrix:      m.Matrix,
		Samples:     m.Samples,
		Eff:         m.Eff,
		TinySamples: m.TinySamples,
		EnergyMJ:    m.meter.EnergyMJ(),
		Elapsed:     m.meter.Elapsed(),
		UtilSum:     m.utilSum,
		UtilCount:   m.utilCount,
	}
	for t, byMHz := range m.Residency {
		for mhz, ns := range byMHz {
			sn.Residency = append(sn.Residency, ResidencyEntry{Type: t, MHz: mhz, Ns: ns})
		}
	}
	sort.Slice(sn.Residency, func(i, j int) bool {
		a, b := sn.Residency[i], sn.Residency[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.MHz < b.MHz
	})
	if seq, ok := m.sampleEv.EventSeq(); ok {
		sn.SamplePending, sn.SampleAt, sn.SampleSeq = true, m.sampleEv.At(), seq
	}
	return sn
}

// Restore loads sn into a freshly built sampler; the engine must already be
// Reset to the capture point.
func (m *Sampler) Restore(sn *Snap) error {
	if len(sn.LastBusy) != len(m.lastBusy) || len(sn.LastDeep) != len(m.lastDeep) {
		return fmt.Errorf("metrics: snapshot has %d/%d core entries, sampler has %d",
			len(sn.LastBusy), len(sn.LastDeep), len(m.lastBusy))
	}
	copy(m.lastBusy, sn.LastBusy)
	copy(m.lastDeep, sn.LastDeep)
	m.Matrix = sn.Matrix
	m.Samples = sn.Samples
	m.Eff = sn.Eff
	m.TinySamples = sn.TinySamples
	m.utilSum = sn.UtilSum
	m.utilCount = sn.UtilCount
	for _, e := range sn.Residency {
		byMHz := m.Residency[e.Type]
		if byMHz == nil {
			return fmt.Errorf("metrics: snapshot residency for unknown core type %d", e.Type)
		}
		byMHz[e.MHz] = e.Ns
	}
	m.meter.Restore(sn.EnergyMJ, sn.Elapsed)
	if sn.SamplePending {
		m.sampleEv = m.sys.Eng.ScheduleAt(sn.SampleAt, sn.SampleSeq, m.sampleFn)
	}
	return nil
}
