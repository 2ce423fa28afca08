// Package power models whole-system power the way the paper measures it with
// a Monsoon meter (§II): a base rail covering everything outside the CPU
// clusters, plus per-core power that combines switching power (C·V²·f scaled
// by utilization) with an activity overhead term capturing uncore and DRAM
// power that tracks CPU activity. Idle-but-online cores retain a small
// fraction of the overhead (clock gating).
//
// The model is calibrated against the paper's anchors:
//   - a big core at 1.3 GHz fully utilized draws ~2.3x the system power of a
//     little core at 1.3 GHz (§III-A),
//   - a big core at 0.8 GHz still draws ~1.5x a little core at 1.3 GHz,
//   - power-versus-utilization slope grows steeply with frequency (Fig. 6).
package power

import (
	"biglittle/internal/event"
	"biglittle/internal/platform"
)

// TypeParams holds per-core-type model coefficients.
type TypeParams struct {
	// DynCoefMW scales switching power: P_dyn = DynCoefMW · V² · f(GHz·1000) · util, in mW.
	DynCoefMW float64
	// ActiveOverheadMW is the activity-proportional overhead (core static +
	// uncore + DRAM) at full utilization, scaled by voltage.
	ActiveOverheadMW float64
	// IdleFrac of the overhead remains when the core is online but idle.
	IdleFrac float64
	// Voltage curve endpoints across the frequency table.
	VMin, VMax float64
	FMin, FMax int // MHz, matching the cluster frequency table
}

// Voltage returns the supply voltage at fMHz by linear interpolation.
func (tp *TypeParams) Voltage(fMHz int) float64 {
	if fMHz <= tp.FMin {
		return tp.VMin
	}
	if fMHz >= tp.FMax {
		return tp.VMax
	}
	frac := float64(fMHz-tp.FMin) / float64(tp.FMax-tp.FMin)
	return tp.VMin + frac*(tp.VMax-tp.VMin)
}

// Params is the full system power model.
type Params struct {
	BaseMW float64 // everything outside the CPU subsystem, screen off
	Little TypeParams
	Big    TypeParams
	// Tiny parameterizes the hypothetical third core type of the paper's
	// §VI-B (see platform.Exynos5422Tiny).
	Tiny TypeParams
}

// Default returns the calibrated Exynos 5422 model.
func Default() Params {
	return Params{
		BaseMW: 250,
		Little: TypeParams{
			DynCoefMW:        0.308,
			ActiveOverheadMW: 60,
			IdleFrac:         0.05,
			VMin:             0.90, VMax: 1.10,
			FMin: 500, FMax: 1300,
		},
		Big: TypeParams{
			DynCoefMW:        0.535,
			ActiveOverheadMW: 670,
			IdleFrac:         0.03,
			VMin:             0.90, VMax: 1.25,
			FMin: 800, FMax: 1900,
		},
		Tiny: TypeParams{
			DynCoefMW:        0.11,
			ActiveOverheadMW: 16,
			IdleFrac:         0.05,
			VMin:             0.85, VMax: 0.85,
			FMin: 600, FMax: 600,
		},
	}
}

// Snapdragon810Params returns a power model for the Snapdragon 810-class
// preset: the A53 little cores are slightly more efficient than the A7s,
// while the 20nm A57 cluster is notoriously power-hungry at its top bins.
func Snapdragon810Params() Params {
	return Params{
		BaseMW: 260,
		Little: TypeParams{
			DynCoefMW:        0.27,
			ActiveOverheadMW: 55,
			IdleFrac:         0.05,
			VMin:             0.85, VMax: 1.05,
			FMin: 400, FMax: 1500,
		},
		Big: TypeParams{
			DynCoefMW:        0.62,
			ActiveOverheadMW: 740,
			IdleFrac:         0.03,
			VMin:             0.90, VMax: 1.30,
			FMin: 600, FMax: 2000,
		},
		Tiny: Default().Tiny,
	}
}

// The model's methods take pointer receivers: Params is 176 bytes, and they
// run on every sampler interval and scheduler sync, where copying the struct
// per call was a measurable share of a simulation's time.

func (p *Params) typeParams(t platform.CoreType) *TypeParams {
	switch t {
	case platform.Big:
		return &p.Big
	case platform.Tiny:
		return &p.Tiny
	default:
		return &p.Little
	}
}

// CorePowerMW returns one online core's power at frequency fMHz and average
// utilization util in [0,1]. Offline cores draw nothing (power gated).
func (p *Params) CorePowerMW(t platform.CoreType, fMHz int, util float64) float64 {
	return p.CorePowerDeepMW(t, fMHz, util, 0)
}

// MarginalMW returns the power a core of type t at fMHz adds by running
// flat out rather than idling: the energy-model cost of work that the
// scheduler attributes to tasks and that EAS compares across clusters.
func (p *Params) MarginalMW(t platform.CoreType, fMHz int) float64 {
	return p.CorePowerMW(t, fMHz, 1) - p.CorePowerMW(t, fMHz, 0)
}

// CorePowerDeepMW extends CorePowerMW with the fraction of the interval the
// core spent in the deep idle state, during which the idle overhead is
// power-gated away (cpuidle cluster sleep).
func (p *Params) CorePowerDeepMW(t platform.CoreType, fMHz int, util, deepFrac float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	if deepFrac < 0 {
		deepFrac = 0
	}
	if deepFrac > 1-util {
		deepFrac = 1 - util
	}
	tp := p.typeParams(t)
	v := tp.Voltage(fMHz)
	dyn := tp.DynCoefMW * v * v * float64(fMHz) * util
	// Overhead: full share while active, IdleFrac share while in shallow
	// idle, nothing while deep idle.
	overhead := tp.ActiveOverheadMW * v * (util + tp.IdleFrac*(1-util-deepFrac))
	return dyn + overhead
}

// CoreLoad describes one online core's state for a system power sample.
type CoreLoad struct {
	Type platform.CoreType
	MHz  int
	Util float64
	// DeepFrac is the fraction of the interval spent in deep idle.
	DeepFrac float64
}

// SystemPowerMW returns whole-system power for a set of online core states.
func (p *Params) SystemPowerMW(cores []CoreLoad) float64 {
	total := p.BaseMW
	for _, c := range cores {
		total += p.CorePowerDeepMW(c.Type, c.MHz, c.Util, c.DeepFrac)
	}
	return total
}

// Meter integrates power over simulated time, mirroring the Monsoon meter's
// role: feed it (interval, milliwatt) samples and read average power and
// total energy at the end.
type Meter struct {
	energyMJ float64 // millijoules (mW × s)
	elapsed  event.Time
}

// Add accrues dt of operation at mw milliwatts.
func (m *Meter) Add(dt event.Time, mw float64) {
	if dt <= 0 {
		return
	}
	m.energyMJ += mw * dt.Seconds()
	m.elapsed += dt
}

// EnergyMJ returns total accumulated energy in millijoules.
func (m *Meter) EnergyMJ() float64 { return m.energyMJ }

// Elapsed returns total metered time.
func (m *Meter) Elapsed() event.Time { return m.elapsed }

// AvgMW returns average power over the metered interval.
func (m *Meter) AvgMW() float64 {
	if m.elapsed == 0 {
		return 0
	}
	return m.energyMJ / m.elapsed.Seconds()
}

// Restore overwrites the meter's accumulators with values captured by a
// whole-simulation snapshot.
func (m *Meter) Restore(energyMJ float64, elapsed event.Time) {
	m.energyMJ = energyMJ
	m.elapsed = elapsed
}
