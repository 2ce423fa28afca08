package platform

import (
	"testing"
	"testing/quick"
)

func TestExynos5422Topology(t *testing.T) {
	s := Exynos5422()
	if len(s.Cores) != 8 || len(s.Clusters) != 2 {
		t.Fatalf("got %d cores %d clusters, want 8/2", len(s.Cores), len(s.Clusters))
	}
	if n := s.OnlineCount(Little); n != 4 {
		t.Fatalf("little online = %d, want 4", n)
	}
	if n := s.OnlineCount(Big); n != 4 {
		t.Fatalf("big online = %d, want 4", n)
	}
	lc, bc := s.ClusterByType(Little), s.ClusterByType(Big)
	if lc.MinMHz() != 500 || lc.MaxMHz() != 1300 {
		t.Fatalf("little freq range %d-%d, want 500-1300", lc.MinMHz(), lc.MaxMHz())
	}
	if bc.MinMHz() != 800 || bc.MaxMHz() != 1900 {
		t.Fatalf("big freq range %d-%d, want 800-1900", bc.MinMHz(), bc.MaxMHz())
	}
	for id := 0; id < 4; id++ {
		if s.Cores[id].Type != Little {
			t.Fatalf("core %d should be little", id)
		}
	}
	for id := 4; id < 8; id++ {
		if s.Cores[id].Type != Big {
			t.Fatalf("core %d should be big", id)
		}
		if s.ClusterOf(id) != bc {
			t.Fatalf("core %d not in big cluster", id)
		}
	}
	if Little.String() != "little" || Big.String() != "big" {
		t.Fatal("CoreType.String mismatch")
	}
}

func TestClampMHz(t *testing.T) {
	c := Exynos5422().ClusterByType(Little)
	cases := []struct{ in, want int }{
		{0, 500}, {500, 500}, {501, 600}, {649, 700}, {1300, 1300}, {9999, 1300},
	}
	for _, cse := range cases {
		if got := c.ClampMHz(cse.in); got != cse.want {
			t.Errorf("ClampMHz(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestSetFreq(t *testing.T) {
	s := Exynos5422()
	if got := s.SetFreq(1, 1550); got != 1600 {
		t.Fatalf("SetFreq big 1550 -> %d, want 1600", got)
	}
	if s.ClusterByType(Big).CurMHz != 1600 {
		t.Fatal("cluster frequency not updated")
	}
}

func TestLittleCoreConstraint(t *testing.T) {
	s := Exynos5422()
	for id := 1; id < 4; id++ {
		if err := s.SetOnline(id, false); err != nil {
			t.Fatalf("offline little %d: %v", id, err)
		}
	}
	if err := s.SetOnline(0, false); err == nil {
		t.Fatal("offlining the last little core must fail")
	}
	// All big cores may go offline.
	for id := 4; id < 8; id++ {
		if err := s.SetOnline(id, false); err != nil {
			t.Fatalf("offline big %d: %v", id, err)
		}
	}
	if n := s.OnlineCount(Big); n != 0 {
		t.Fatalf("big online = %d, want 0", n)
	}
}

func TestParseCoreConfig(t *testing.T) {
	good := map[string]CoreConfig{
		"L2":    {Little: 2},
		"L4+B4": {Little: 4, Big: 4},
		"L2+B1": {Little: 2, Big: 1},
		"l3+b2": {Little: 3, Big: 2},
	}
	for in, want := range good {
		got, err := ParseCoreConfig(in)
		if err != nil || got != want {
			t.Errorf("ParseCoreConfig(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "B4", "L0+B1", "L5", "X2", "L+B", "L2+B9", "L4+L1", "L4+B4+B1"} {
		if _, err := ParseCoreConfig(bad); err == nil {
			t.Errorf("ParseCoreConfig(%q) succeeded, want error", bad)
		}
	}
}

func TestCoreConfigString(t *testing.T) {
	if s := (CoreConfig{Little: 2}).String(); s != "L2" {
		t.Errorf("got %q", s)
	}
	if s := (CoreConfig{Little: 4, Big: 1}).String(); s != "L4+B1" {
		t.Errorf("got %q", s)
	}
}

func TestApplyConfigs(t *testing.T) {
	for _, cfg := range append(StudyConfigs(), Baseline()) {
		s := Exynos5422()
		if err := cfg.Apply(s); err != nil {
			t.Fatalf("Apply(%v): %v", cfg, err)
		}
		if got := s.OnlineCount(Little); got != cfg.Little {
			t.Errorf("%v: little online %d", cfg, got)
		}
		if got := s.OnlineCount(Big); got != cfg.Big {
			t.Errorf("%v: big online %d", cfg, got)
		}
	}
}

func TestApplyTransitions(t *testing.T) {
	// Apply must work from any starting state, including from a minimal one.
	s := Exynos5422()
	if err := (CoreConfig{Little: 1}).Apply(s); err != nil {
		t.Fatal(err)
	}
	if err := (CoreConfig{Little: 4, Big: 4}).Apply(s); err != nil {
		t.Fatal(err)
	}
	if s.OnlineCount(Little) != 4 || s.OnlineCount(Big) != 4 {
		t.Fatal("did not restore full config")
	}
	if err := (CoreConfig{Little: 0, Big: 4}).Apply(s); err == nil {
		t.Fatal("zero little cores must be rejected")
	}
}

func TestStudyConfigsCount(t *testing.T) {
	cfgs := StudyConfigs()
	if len(cfgs) != 7 {
		t.Fatalf("StudyConfigs returned %d, want 7 (paper §V-C)", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if seen[c.String()] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
}

// Property: ClampMHz always returns a table frequency >= request (or max).
func TestPropertyClamp(t *testing.T) {
	c := Exynos5422().ClusterByType(Big)
	f := func(mhz uint16) bool {
		got := c.ClampMHz(int(mhz))
		inTable := false
		for _, tf := range c.FreqsMHz {
			if tf == got {
				inTable = true
			}
		}
		if !inTable {
			return false
		}
		if int(mhz) <= c.MaxMHz() && got < int(mhz) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: round-tripping any valid CoreConfig through String/Parse is
// identity, and Apply always leaves at least one little core online.
func TestPropertyConfigRoundTrip(t *testing.T) {
	for little := 1; little <= 4; little++ {
		for big := 0; big <= 4; big++ {
			cfg := CoreConfig{Little: little, Big: big}
			parsed, err := ParseCoreConfig(cfg.String())
			if err != nil || parsed != cfg {
				t.Fatalf("round trip %v -> %q -> %v, %v", cfg, cfg.String(), parsed, err)
			}
			s := Exynos5422()
			if err := cfg.Apply(s); err != nil {
				t.Fatalf("Apply(%v): %v", cfg, err)
			}
			if s.OnlineCount(Little) < 1 {
				t.Fatalf("Apply(%v) left no little core online", cfg)
			}
		}
	}
}

func TestTierMapping(t *testing.T) {
	if Tiny.Tier() != 0 || Little.Tier() != 1 || Big.Tier() != 2 {
		t.Fatal("tier order")
	}
	for _, typ := range []CoreType{Tiny, Little, Big} {
		if TypeForTier(typ.Tier()) != typ {
			t.Fatalf("round trip %v", typ)
		}
	}
	if Tiny.String() != "tiny" {
		t.Fatal("tiny string")
	}
}

func TestClampDownMHz(t *testing.T) {
	c := Exynos5422().ClusterByType(Big)
	cases := []struct{ in, want int }{
		{1900, 1900}, {1850, 1800}, {800, 800}, {100, 800}, {5000, 1900},
	}
	for _, cse := range cases {
		if got := c.ClampDownMHz(cse.in); got != cse.want {
			t.Errorf("ClampDownMHz(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestThermalCapLimitsSetFreq(t *testing.T) {
	s := Exynos5422()
	bc := s.ClusterByType(Big)
	bc.CapMHz = 1200
	if got := s.SetFreq(bc.ID, 1900); got != 1200 {
		t.Fatalf("SetFreq under cap = %d, want 1200", got)
	}
	bc.CapMHz = 0
	if got := s.SetFreq(bc.ID, 1900); got != 1900 {
		t.Fatalf("SetFreq after cap release = %d", got)
	}
	// A cap between table entries clamps down to a table frequency.
	bc.CapMHz = 1250
	if got := s.SetFreq(bc.ID, 1900); got != 1200 {
		t.Fatalf("mid-table cap gave %d, want 1200", got)
	}
}

func TestExynos5422Tiny(t *testing.T) {
	s := Exynos5422Tiny()
	if len(s.Cores) != 10 || len(s.Clusters) != 3 {
		t.Fatalf("%d cores %d clusters", len(s.Cores), len(s.Clusters))
	}
	tc := s.ClusterByType(Tiny)
	if tc.MinMHz() != 600 || tc.MaxMHz() != 600 {
		t.Fatalf("tiny cluster is single-frequency 600: %d-%d", tc.MinMHz(), tc.MaxMHz())
	}
	if s.OnlineCount(Tiny) != 2 {
		t.Fatal("tiny cores offline")
	}
	cfg, err := ParseCoreConfig("T2+L4+B4")
	if err != nil || cfg.Tiny != 2 {
		t.Fatalf("parse tiny config: %v %v", cfg, err)
	}
	if cfg.String() != "T2+L4+B4" {
		t.Fatalf("round trip %q", cfg.String())
	}
	if err := cfg.Apply(s); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCoreConfig("T3+L4"); err == nil {
		t.Fatal("T3 accepted")
	}
}

func TestSnapdragon810Preset(t *testing.T) {
	s := Snapdragon810()
	if len(s.Cores) != 8 || len(s.Clusters) != 2 {
		t.Fatalf("%d cores %d clusters", len(s.Cores), len(s.Clusters))
	}
	lc, bc := s.ClusterByType(Little), s.ClusterByType(Big)
	if lc.MinMHz() != 400 || lc.MaxMHz() != 1500 {
		t.Fatalf("little range %d-%d", lc.MinMHz(), lc.MaxMHz())
	}
	if bc.MinMHz() != 600 || bc.MaxMHz() != 2000 {
		t.Fatalf("big range %d-%d", bc.MinMHz(), bc.MaxMHz())
	}
	if err := (CoreConfig{Little: 4, Big: 4}).Apply(s); err != nil {
		t.Fatal(err)
	}
}
