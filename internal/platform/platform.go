// Package platform models the asymmetric SoC topology of the paper's target
// device (Exynos 5422 in a Galaxy S5): two clusters — four Cortex-A15 "big"
// cores and four Cortex-A7 "little" cores — each with its own frequency
// table and a single shared clock (per §II, "each core type must have the
// same frequency setting"), plus hotplug with the hardware constraint that
// one little core must always remain online.
package platform

import (
	"fmt"
	"strconv"
	"strings"
)

// CoreType distinguishes the two core microarchitectures.
type CoreType int

const (
	Little CoreType = iota
	Big
	// Tiny is the hypothetical third core type the paper's §VI-B proposes:
	// "another core type, tiny core, with much weaker capability can be
	// added to process such low CPU loads". See Exynos5422Tiny.
	Tiny
)

func (t CoreType) String() string {
	switch t {
	case Big:
		return "big"
	case Tiny:
		return "tiny"
	default:
		return "little"
	}
}

// Tier orders core types by capability: Tiny < Little < Big. The HMP
// scheduler migrates tasks one tier at a time.
func (t CoreType) Tier() int {
	switch t {
	case Tiny:
		return 0
	case Little:
		return 1
	default:
		return 2
	}
}

// TypeForTier is the inverse of Tier.
func TypeForTier(tier int) CoreType {
	switch tier {
	case 0:
		return Tiny
	case 1:
		return Little
	default:
		return Big
	}
}

// Core is one CPU in the SoC.
type Core struct {
	ID      int
	Type    CoreType
	Cluster int
	Online  bool
}

// Cluster groups cores of one type behind a shared clock and L2.
type Cluster struct {
	ID       int
	Type     CoreType
	FreqsMHz []int // ascending frequency table
	CurMHz   int
	CoreIDs  []int
	// CapMHz, when non-zero, caps SetFreq requests (thermal throttling).
	CapMHz int
}

// MinMHz returns the lowest table frequency.
func (c *Cluster) MinMHz() int { return c.FreqsMHz[0] }

// MaxMHz returns the highest table frequency.
func (c *Cluster) MaxMHz() int { return c.FreqsMHz[len(c.FreqsMHz)-1] }

// ClampMHz returns the lowest table frequency >= mhz, or the max if mhz
// exceeds the table (the governor rounds target frequencies up so the core
// always has at least the requested capacity).
func (c *Cluster) ClampMHz(mhz int) int {
	for _, f := range c.FreqsMHz {
		if f >= mhz {
			return f
		}
	}
	return c.MaxMHz()
}

// ClampDownMHz returns the highest table frequency <= mhz, or the minimum
// if mhz is below the table (used for thermal caps).
func (c *Cluster) ClampDownMHz(mhz int) int {
	out := c.MinMHz()
	for _, f := range c.FreqsMHz {
		if f <= mhz {
			out = f
		}
	}
	return out
}

// SoC is the modeled system-on-chip.
type SoC struct {
	// Name identifies the preset ("exynos5422", "snapdragon810", ...).
	// Custom SoCs may leave it empty; experiment-result caching treats an
	// unnamed platform as unidentifiable and skips caching such runs.
	Name     string
	Cores    []Core
	Clusters []Cluster
}

// Exynos5422 builds the paper's target SoC: cores 0-3 are little
// (500-1300 MHz in 100 MHz steps), cores 4-7 are big (800-1900 MHz in
// 100 MHz steps). All cores start online at the minimum frequency, as after
// an idle period on the real device.
func Exynos5422() *SoC {
	little := Cluster{ID: 0, Type: Little, FreqsMHz: freqTable(500, 1300), CoreIDs: []int{0, 1, 2, 3}}
	big := Cluster{ID: 1, Type: Big, FreqsMHz: freqTable(800, 1900), CoreIDs: []int{4, 5, 6, 7}}
	little.CurMHz = little.MinMHz()
	big.CurMHz = big.MinMHz()
	s := &SoC{Name: "exynos5422", Clusters: []Cluster{little, big}}
	for i := 0; i < 8; i++ {
		t, cl := Little, 0
		if i >= 4 {
			t, cl = Big, 1
		}
		s.Cores = append(s.Cores, Core{ID: i, Type: t, Cluster: cl, Online: true})
	}
	return s
}

// Exynos5422Tiny is the paper's §VI-B thought experiment made concrete: the
// standard SoC plus a third cluster of two tiny in-order cores (cores 8-9)
// sized to absorb the "min"-state loads that even a little core at minimum
// frequency over-serves. The tiny cluster runs at a single fixed 600 MHz:
// its power is low enough that DVFS machinery (and its reaction latency)
// is not worth carrying.
func Exynos5422Tiny() *SoC {
	s := Exynos5422()
	s.Name = "exynos5422-tiny"
	tiny := Cluster{ID: 2, Type: Tiny, FreqsMHz: freqTable(600, 600), CoreIDs: []int{8, 9}}
	tiny.CurMHz = tiny.MinMHz()
	s.Clusters = append(s.Clusters, tiny)
	s.Cores = append(s.Cores,
		Core{ID: 8, Type: Tiny, Cluster: 2, Online: true},
		Core{ID: 9, Type: Tiny, Cluster: 2, Online: true},
	)
	return s
}

// Snapdragon810 builds a contemporary competitor SoC: four Cortex-A57-class
// big cores (up to 1.96 GHz, rounded to 2.0 GHz steps here) and four
// Cortex-A53-class little cores (up to 1.56 GHz, rounded to 1.5 GHz). The
// same HMP/governor stack runs unchanged — the library is not tied to one
// chip.
func Snapdragon810() *SoC {
	little := Cluster{ID: 0, Type: Little, FreqsMHz: freqTable(400, 1500), CoreIDs: []int{0, 1, 2, 3}}
	big := Cluster{ID: 1, Type: Big, FreqsMHz: freqTable(600, 2000), CoreIDs: []int{4, 5, 6, 7}}
	little.CurMHz = little.MinMHz()
	big.CurMHz = big.MinMHz()
	s := &SoC{Name: "snapdragon810", Clusters: []Cluster{little, big}}
	for i := 0; i < 8; i++ {
		t, cl := Little, 0
		if i >= 4 {
			t, cl = Big, 1
		}
		s.Cores = append(s.Cores, Core{ID: i, Type: t, Cluster: cl, Online: true})
	}
	return s
}

func freqTable(minMHz, maxMHz int) []int {
	var t []int
	for f := minMHz; f <= maxMHz; f += 100 {
		t = append(t, f)
	}
	return t
}

// ClusterOf returns the cluster a core belongs to.
func (s *SoC) ClusterOf(coreID int) *Cluster { return &s.Clusters[s.Cores[coreID].Cluster] }

// ClusterByType returns the cluster of the given type.
func (s *SoC) ClusterByType(t CoreType) *Cluster {
	for i := range s.Clusters {
		if s.Clusters[i].Type == t {
			return &s.Clusters[i]
		}
	}
	return nil
}

// SetFreq sets a cluster's frequency to the nearest table entry at or above
// mhz, subject to the cluster's thermal cap. It returns the frequency
// actually set.
func (s *SoC) SetFreq(clusterID, mhz int) int {
	c := &s.Clusters[clusterID]
	target := c.ClampMHz(mhz)
	if c.CapMHz > 0 && target > c.CapMHz {
		target = c.ClampDownMHz(c.CapMHz)
	}
	c.CurMHz = target
	return c.CurMHz
}

// SetOnline changes a core's hotplug state. Taking the last little core
// offline violates the hardware constraint (§II) and returns an error.
func (s *SoC) SetOnline(coreID int, online bool) error {
	c := &s.Cores[coreID]
	if !online && c.Type == Little {
		others := 0
		for _, o := range s.Cores {
			if o.Type == Little && o.Online && o.ID != coreID {
				others++
			}
		}
		if others == 0 {
			return fmt.Errorf("platform: cannot offline core %d: one little core must stay online", coreID)
		}
	}
	c.Online = online
	return nil
}

// OnlineCores returns the IDs of online cores of type t, ascending.
func (s *SoC) OnlineCores(t CoreType) []int {
	var ids []int
	for _, c := range s.Cores {
		if c.Type == t && c.Online {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// OnlineCount returns the number of online cores of type t without
// allocating the ID slice OnlineCores builds.
func (s *SoC) OnlineCount(t CoreType) int {
	n := 0
	for i := range s.Cores {
		if s.Cores[i].Type == t && s.Cores[i].Online {
			n++
		}
	}
	return n
}

// CoreConfig is a hotplug configuration: how many little and big cores are
// online. The paper's §V-C notation "L2+B1" means two little cores and one
// big core.
type CoreConfig struct {
	Little int
	Big    int
	// Tiny cores are only available on the Exynos5422Tiny platform.
	Tiny int
}

func (c CoreConfig) String() string {
	s := ""
	if c.Tiny > 0 {
		s = fmt.Sprintf("T%d+", c.Tiny)
	}
	s += fmt.Sprintf("L%d", c.Little)
	if c.Big > 0 {
		s += fmt.Sprintf("+B%d", c.Big)
	}
	return s
}

// ParseCoreConfig parses "L4+B4", "L2", "L2+B1" style notation, naming each
// cluster at most once.
func ParseCoreConfig(s string) (CoreConfig, error) {
	var cfg CoreConfig
	seen := map[*int]bool{}
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		if len(part) < 2 {
			return cfg, fmt.Errorf("platform: bad core config part %q", part)
		}
		n, err := strconv.Atoi(part[1:])
		if err != nil {
			return cfg, fmt.Errorf("platform: bad core config part %q: %v", part, err)
		}
		var count *int
		switch part[0] {
		case 'L', 'l':
			count = &cfg.Little
		case 'B', 'b':
			count = &cfg.Big
		case 'T', 't':
			count = &cfg.Tiny
		default:
			return cfg, fmt.Errorf("platform: bad core config part %q", part)
		}
		if seen[count] {
			return cfg, fmt.Errorf("platform: core config %q names cluster %c twice", s, part[0]&^0x20)
		}
		seen[count] = true
		*count = n
	}
	if cfg.Little < 1 || cfg.Little > 4 || cfg.Big < 0 || cfg.Big > 4 || cfg.Tiny < 0 || cfg.Tiny > 2 {
		return cfg, fmt.Errorf("platform: core config %v out of range (1-4 little, 0-4 big, 0-2 tiny)", cfg)
	}
	return cfg, nil
}

// Apply hotplugs the SoC to match the configuration: the first cfg.Little
// little cores and first cfg.Big big cores online, the rest offline.
func (cfg CoreConfig) Apply(s *SoC) error {
	if cfg.Little < 1 {
		return fmt.Errorf("platform: config %v needs at least one little core", cfg)
	}
	want := map[CoreType]int{Little: cfg.Little, Big: cfg.Big, Tiny: cfg.Tiny}
	// Bring requested cores online first so the little-core constraint
	// never trips while reshuffling.
	got := map[CoreType]int{}
	for i := range s.Cores {
		c := &s.Cores[i]
		if got[c.Type] < want[c.Type] {
			got[c.Type]++
			if err := s.SetOnline(c.ID, true); err != nil {
				return err
			}
		}
	}
	kept := map[CoreType]int{}
	for i := range s.Cores {
		c := &s.Cores[i]
		if kept[c.Type] < want[c.Type] {
			kept[c.Type]++
			continue
		}
		if err := s.SetOnline(c.ID, false); err != nil {
			return err
		}
	}
	for t, n := range want {
		if kept[t] < n {
			return fmt.Errorf("platform: SoC cannot satisfy config %v (missing %v cores)", cfg, t)
		}
	}
	return nil
}

// StudyConfigs returns the seven hotplug combinations evaluated in the
// paper's §V-C (Figures 7 and 8), plus helpers use Baseline for L4+B4.
func StudyConfigs() []CoreConfig {
	return []CoreConfig{
		{Little: 2}, {Little: 4},
		{Little: 2, Big: 1}, {Little: 4, Big: 1},
		{Little: 2, Big: 2}, {Little: 4, Big: 2},
		{Little: 2, Big: 4},
	}
}

// Baseline returns the default L4+B4 configuration.
func Baseline() CoreConfig { return CoreConfig{Little: 4, Big: 4} }
