package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/thermal"
)

// TestTicklessMatchesEager pins the kernel shortcuts' contract: eliding
// idle ticks, running ticks inline, replaying sampler, governor and thermal
// firings on dormant ticks, skipping idle-core syncs, sifting rescheduled
// completions one way and decaying sleeping loads lazily change no
// observable bit. Every app, on the default platform, a §V-C hotplug
// configuration, the tiny-core platform, with deep idle, under a
// non-interactive governor and with a throttling thermal model, produces
// the same Result, the same engine counters, and the same snapshot blobs as
// the truly eager run (newEagerSim), and the same Result as a plain Run.
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
		{"thermal", func(c *Config) {
			// A fast, low envelope: most apps throttle and release within
			// the run, some of it during dormant stretches.
			par := thermal.Default()
			par.TripC, par.ClearC, par.SampleMs, par.TimeConstant = 31, 29, 30, 300*event.Millisecond
			c.Thermal = &par
		}},
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
				want := RunTrial(t, cfg, true)
				got := RunTrial(t, cfg, false)
				if n := want.Shortcuts(); n != 0 {
					t.Fatalf("eager reference took %d shortcuts", n)
				}
				if got.Shortcuts() == 0 {
					t.Fatalf("run took no shortcut")
				}
				if got.Fired != want.Fired || got.Scheduled != want.Scheduled {
					t.Fatalf("engine counters fired/scheduled %d/%d, eager %d/%d",
						got.Fired, got.Scheduled, want.Fired, want.Scheduled)
				}
				for i := range want.Blobs {
					if !bytes.Equal(got.Blobs[i], want.Blobs[i]) {
						t.Fatalf("snapshot at %d%% differs from the eager run's", 25*(i+1))
					}
				}
				if !reflect.DeepEqual(got.Result, want.Result) {
					t.Fatalf("Result diverged from the eager run\neager:    %+v\ntickless: %+v", want.Result, got.Result)
				}
				if plain := Run(cfg); !reflect.DeepEqual(plain, want.Result) {
					t.Fatalf("plain Run diverged from the eager run\neager: %+v\nplain: %+v", want.Result, plain)
				}
			})
		}
	}
}

// TestTicklessElides guards against a change that silently disables a
// shortcut. Over 30 s, the browser, idle most of the time, must skip at
// least 70% of its 30 000 ticks and replay at least 70% of its 3 000
// sampler firings inline instead of popping them; fifa15, busy most of the
// time, must run at least 40% of the ticks it fires inline.
func TestTicklessElides(t *testing.T) {
	ticks := uint64(30 * event.Second / event.Millisecond)
	browser := newSim(DefaultConfig(apps.Browser()).Normalized(), nil)
	browser.RunTo(30 * event.Second)
	if got := browser.sys.ElidedTicks(); got*100 < ticks*70 {
		t.Fatalf("browser elided %d of %d ticks (%.0f%%), want >= 70%%",
			got, ticks, 100*float64(got)/float64(ticks))
	}
	// A replayed firing is the sampler's or the governor's (browser runs no
	// thermal model), so at least the total less every governor firing are
	// the sampler's.
	cfg := browser.cfg
	samples := uint64(30 * event.Second / metrics.SampleInterval)
	govFirings := uint64(30 * event.Second / (event.Time(cfg.Gov.SampleMs) * event.Millisecond))
	replayed := browser.sys.ReplayedFirings()
	if got := replayed - min(replayed, govFirings); got*100 < samples*70 {
		t.Fatalf("browser replayed at least %d of %d sampler firings (%.0f%%), want >= 70%%",
			got, samples, 100*float64(got)/float64(samples))
	}
	fifa := newSim(DefaultConfig(apps.FIFA15()).Normalized(), nil)
	fifa.RunTo(30 * event.Second)
	fired := ticks - fifa.sys.ElidedTicks()
	if got := fifa.sys.InlineTicks(); got*100 < fired*40 {
		t.Fatalf("fifa15 ran %d of %d fired ticks inline (%.0f%%), want >= 40%%",
			got, fired, 100*float64(got)/float64(fired))
	}
}
