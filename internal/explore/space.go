// Package explore searches a declared configuration space for the Pareto
// front of (energy, delay) using successive halving: cheap low-fidelity
// runs — short durations, snapshot-forked from a shared prefix — screen the
// whole space, and only the survivors of each rung graduate to longer,
// higher-fidelity runs. Every rung goes through the lab runner, so results
// memoize in the content-addressed cache and a repeated exploration
// simulates nothing.
//
// The engine is deterministic: the same space, options, and seed produce
// the same ladder, the same survivors at every rung, and the same frontier,
// whatever the worker count or cache temperature.
package explore

import (
	"fmt"
	"slices"
	"strings"

	"biglittle/internal/cli"
	"biglittle/internal/core"
)

// Dim is one axis of the search space: an override key from the
// cli.ApplyOverrides vocabulary (up, down, sample-ms, target-load,
// governor, scheduler, cores, seed, ...) and the candidate values to try,
// in declared order.
type Dim struct {
	Key    string
	Values []string
}

// Space is the full cross product of its dimensions applied over a base
// configuration. Config(i) materializes one point; indices are mixed-radix
// with Dims[0] varying fastest, so the enumeration order is the nested-loop
// order a hand-written sweep would produce.
type Space struct {
	// Base is the configuration every point starts from. Its Duration is
	// the full-fidelity duration D of the exploration.
	Base core.Config
	Dims []Dim
}

// identityDims are override keys that change the simulation's snapshot
// identity (snapshot.State pins App, Seed, and Cores): a space varying one
// of these cannot share fork prefixes across points, so the engine screens
// it with short from-scratch runs instead.
var identityDims = map[string]bool{"cores": true, "seed": true}

// Size returns the number of points in the space.
func (s *Space) Size() int {
	if len(s.Dims) == 0 {
		return 0
	}
	n := 1
	for _, d := range s.Dims {
		n *= len(d.Values)
	}
	return n
}

// Validate checks the space once up front: at least one dimension, no
// empty value lists, no duplicate keys, and every single value applies
// cleanly to the base config — so a typo fails before any simulation, not
// at rung three.
func (s *Space) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("explore: empty space (no dimensions)")
	}
	seen := make(map[string]bool, len(s.Dims))
	for _, d := range s.Dims {
		if len(d.Values) == 0 {
			return fmt.Errorf("explore: dimension %q has no values", d.Key)
		}
		if seen[d.Key] {
			return fmt.Errorf("explore: dimension %q declared twice", d.Key)
		}
		seen[d.Key] = true
		for i, v := range d.Values {
			if slices.Contains(d.Values[:i], v) {
				return fmt.Errorf("explore: dimension %q lists value %q twice", d.Key, v)
			}
			cfg := s.Base
			if err := cli.ApplyOverrides(&cfg, d.Key+"="+v); err != nil {
				return fmt.Errorf("explore: dimension %q: %w", d.Key, err)
			}
		}
	}
	return nil
}

// Config materializes point i of the space.
func (s *Space) Config(i int) (core.Config, error) {
	if i < 0 || i >= s.Size() {
		return core.Config{}, fmt.Errorf("explore: config index %d out of range [0, %d)", i, s.Size())
	}
	cfg := s.Base
	for _, d := range s.Dims {
		v := d.Values[i%len(d.Values)]
		i /= len(d.Values)
		if err := cli.ApplyOverrides(&cfg, d.Key+"="+v); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, nil
}

// Desc renders point i as the override spec that produces it, e.g.
// "sample-ms=60,target-load=85" — valid input for bldiff's -a/-b flags.
func (s *Space) Desc(i int) string {
	parts := make([]string, len(s.Dims))
	for di, d := range s.Dims {
		parts[di] = d.Key + "=" + d.Values[i%len(d.Values)]
		i /= len(d.Values)
	}
	return strings.Join(parts, ",")
}

// Shape renders the space's dimensions compactly, e.g.
// "sample-ms(4) x target-load(3)".
func (s *Space) Shape() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = fmt.Sprintf("%s(%d)", d.Key, len(d.Values))
	}
	return strings.Join(parts, " x ")
}

// Forkable reports whether points of this space can resume from a shared
// snapshot prefix of Base: they can unless a dimension rewrites the
// snapshot identity (cores, seed).
func (s *Space) Forkable() bool {
	for _, d := range s.Dims {
		if identityDims[d.Key] {
			return false
		}
	}
	return true
}

// ParseDim parses one "key=v1,v2,v3" dimension spec (the blexplore -dim
// flag syntax).
func ParseDim(spec string) (Dim, error) {
	key, vals, ok := strings.Cut(spec, "=")
	key = strings.TrimSpace(key)
	if !ok || key == "" {
		return Dim{}, fmt.Errorf("explore: bad dimension %q (want key=v1,v2,...)", spec)
	}
	d := Dim{Key: key}
	for _, v := range strings.Split(vals, ",") {
		if v = strings.TrimSpace(v); v != "" {
			d.Values = append(d.Values, v)
		}
	}
	if len(d.Values) == 0 {
		return Dim{}, fmt.Errorf("explore: dimension %q has no values", key)
	}
	return d, nil
}

// ParseSpec parses a space specification: one "key = v1,v2,v3" dimension
// per line, '#' comments and blank lines ignored (the blexplore -space file
// format).
func ParseSpec(text string) ([]Dim, error) {
	var dims []Dim
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		d, err := ParseDim(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		dims = append(dims, d)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("explore: space spec declares no dimensions")
	}
	return dims, nil
}
