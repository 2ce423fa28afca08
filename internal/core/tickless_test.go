package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/snapshot"
	"biglittle/internal/workload"
)

// eager makes cfg the eager reference run. An OnTick subscriber is one of
// the existing conditions under which the scheduler never elides a tick,
// and this one only reads every task's load, which catches each sleeping
// task's decay up at every tick — so the reference also tracks load
// eagerly, as the kernel did before decay became lazy.
func eager(cfg Config) Config {
	cfg.OnSystem = func(sys *sched.System) {
		sys.OnTick(func(event.Time) {
			for _, t := range sys.Tasks() {
				t.Load()
			}
		})
	}
	return cfg
}

// steppedRun is everything the tickless kernel must leave unchanged.
type steppedRun struct {
	res              Result
	fired, scheduled uint64
	blobs            [][]byte // encoded snapshots at 25/50/75% of the run
	elided           uint64
}

// runStepped runs cfg to the end in quarters, encoding a snapshot at each
// pause. It assembles the recording sim directly rather than through NewSim
// so the eager reference, whose OnSystem hook NewSim rejects, can snapshot
// too.
func runStepped(t *testing.T, cfg Config) steppedRun {
	t.Helper()
	cfg = cfg.Normalized()
	sim := newSim(cfg, workload.NewRecorder())
	var out steppedRun
	for q := event.Time(1); q <= 3; q++ {
		sim.RunTo(cfg.Duration * q / 4)
		st, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		out.blobs = append(out.blobs, blob)
	}
	sim.RunTo(cfg.Duration)
	out.fired, out.scheduled = sim.eng.Fired(), sim.eng.Scheduled()
	out.elided = sim.sys.ElidedTicks()
	out.res = sim.Finish()
	return out
}

// TestTicklessMatchesEager pins the tickless kernel's contract: eliding
// idle ticks and decaying sleeping loads lazily changes no observable bit.
// Every app, on the default platform, a §V-C hotplug configuration, the
// tiny-core platform, with deep idle, and under a non-interactive governor,
// produces the same Result, the same engine counters, and the same snapshot
// blobs as the eager-tick run, and the same Result as a plain Run.
func TestTicklessMatchesEager(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"L4+B4", func(*Config) {}},
		{"L4+B1", func(c *Config) { c.Cores = platform.CoreConfig{Little: 4, Big: 1} }},
		{"tiny", func(c *Config) { c.Cores = platform.CoreConfig{Tiny: 2, Little: 4, Big: 4} }},
		{"deep-idle", func(c *Config) {
			c.Sched.DeepIdleAfter = 2 * event.Millisecond
			c.Sched.DeepIdleWake = event.Millisecond
		}},
		{"ondemand", func(c *Config) { c.Governor = Ondemand }},
	}
	for _, v := range variants {
		for _, app := range apps.All() {
			v, app := v, app
			t.Run(fmt.Sprintf("%s/%s", v.name, app.Name), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(app)
				// Quarters of 4.002 s pause at 1000.5, 2001 and 3001.5 ms:
				// off the 10 ms sampler grid, so only the elision's own
				// SyncAll can leave the idle cores synced as an eager
				// tick would.
				cfg.Duration = 4*event.Second + 2*event.Millisecond
				v.mutate(&cfg)
				want := runStepped(t, eager(cfg))
				got := runStepped(t, cfg)
				if want.elided != 0 {
					t.Fatalf("eager reference elided %d ticks", want.elided)
				}
				if got.fired != want.fired || got.scheduled != want.scheduled {
					t.Fatalf("engine counters fired/scheduled %d/%d, eager %d/%d",
						got.fired, got.scheduled, want.fired, want.scheduled)
				}
				for i := range want.blobs {
					if !bytes.Equal(got.blobs[i], want.blobs[i]) {
						t.Fatalf("snapshot at %d%% differs from the eager run's", 25*(i+1))
					}
				}
				if !reflect.DeepEqual(got.res, want.res) {
					t.Fatalf("Result diverged from the eager run\neager:    %+v\ntickless: %+v", want.res, got.res)
				}
				if plain := Run(cfg); !reflect.DeepEqual(plain, want.res) {
					t.Fatalf("plain Run diverged from the eager run\neager: %+v\nplain: %+v", want.res, plain)
				}
			})
		}
	}
}

// TestTicklessElides guards against a change that silently disables
// elision: the browser, idle for most of a 30 s run, must skip at least 70%
// of its 30 000 ticks.
func TestTicklessElides(t *testing.T) {
	cfg := DefaultConfig(apps.Browser())
	sim := newSim(cfg.Normalized(), nil)
	sim.RunTo(cfg.Duration)
	ticks := uint64(cfg.Duration / event.Millisecond)
	if got := sim.sys.ElidedTicks(); got*100 < ticks*70 {
		t.Fatalf("browser elided %d of %d ticks (%.0f%%), want >= 70%%",
			got, ticks, 100*float64(got)/float64(ticks))
	}
}
