package pelt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvergesToInput(t *testing.T) {
	tr := NewTracker(32)
	for i := 0; i < 1000; i++ {
		tr.Update(1, 1)
	}
	if l := tr.Load(); l != Scale {
		t.Fatalf("full-running load = %d, want %d", l, Scale)
	}
	tr2 := NewTracker(32)
	for i := 0; i < 1000; i++ {
		tr2.Update(0.5, 1)
	}
	if l := tr2.Load(); l < Scale/2-5 || l > Scale/2+5 {
		t.Fatalf("half-running load = %d, want ~%d", l, Scale/2)
	}
}

// The paper: "the 1ms-period load generated 32ms ago will be weighted by 50%".
func TestHalfLife(t *testing.T) {
	tr := NewTracker(32)
	tr.Update(1, 1) // one period of load, then idle
	initial := tr.LoadF()
	for i := 0; i < 32; i++ {
		tr.Update(0, 1)
	}
	after := tr.LoadF()
	if ratio := after / initial; math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("load retained %.3f after 32ms, want 0.50", ratio)
	}
}

func TestHalfLifeSweep(t *testing.T) {
	for _, hl := range []int{16, 32, 64} {
		tr := NewTracker(hl)
		tr.Update(1, 1)
		initial := tr.LoadF()
		for i := 0; i < hl; i++ {
			tr.Update(0, 1)
		}
		if ratio := tr.LoadF() / initial; math.Abs(ratio-0.5) > 0.01 {
			t.Errorf("half-life %d: retained %.3f, want 0.50", hl, ratio)
		}
		if tr.HalfLifeMs() != hl {
			t.Errorf("HalfLifeMs = %d, want %d", tr.HalfLifeMs(), hl)
		}
	}
}

// Frequency invariance: running flat-out at half the max frequency must
// converge to half scale — the normalization Algorithm 1 requires.
func TestFrequencyInvariance(t *testing.T) {
	tr := NewTracker(32)
	for i := 0; i < 1000; i++ {
		tr.Update(1, 0.5)
	}
	if l := tr.Load(); l < Scale/2-5 || l > Scale/2+5 {
		t.Fatalf("load at 50%% freq = %d, want ~%d", l, Scale/2)
	}
}

func TestDefaults(t *testing.T) {
	tr := NewTracker(0)
	if tr.HalfLifeMs() != DefaultHalfLifeMs {
		t.Fatalf("default half-life %d, want %d", tr.HalfLifeMs(), DefaultHalfLifeMs)
	}
	tr = NewTracker(-1)
	if tr.HalfLifeMs() != DefaultHalfLifeMs {
		t.Fatal("negative half-life not defaulted")
	}
}

func TestSetClamps(t *testing.T) {
	tr := NewTracker(32)
	tr.Set(2000)
	if tr.Load() != Scale {
		t.Fatal("Set above scale not clamped")
	}
	tr.Set(-10)
	if tr.Load() != 0 {
		t.Fatal("Set below zero not clamped")
	}
	tr.Set(512)
	if tr.Load() != 512 {
		t.Fatal("Set(512) lost")
	}
}

func TestInputClamping(t *testing.T) {
	a, b := NewTracker(32), NewTracker(32)
	a.Update(1.7, 2.0)
	b.Update(1, 1)
	if a.LoadF() != b.LoadF() {
		t.Fatal("out-of-range inputs not clamped")
	}
	a.Update(-1, -1)
	if a.LoadF() >= b.LoadF() {
		t.Fatal("negative inputs should decay like zero")
	}
}

// Property: load always stays within [0, Scale] and a higher constant input
// never yields a lower steady-state load.
func TestPropertyBounded(t *testing.T) {
	f := func(inputs []float64) bool {
		tr := NewTracker(32)
		for _, in := range inputs {
			tr.Update(in, 1)
			if tr.LoadF() < 0 || tr.LoadF() > Scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: monotonicity — feeding a pointwise-larger input sequence yields
// a load at least as large at every step.
func TestPropertyMonotone(t *testing.T) {
	f := func(seq []uint8) bool {
		lo, hi := NewTracker(32), NewTracker(32)
		for _, v := range seq {
			a := float64(v) / 255
			b := a + (1-a)/2
			lo.Update(a, 1)
			hi.Update(b, 1)
			if hi.LoadF() < lo.LoadF()-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
