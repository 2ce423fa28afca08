package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/check"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/profile"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// The observer variants live in the external test package because the
// auditor's package imports core.

// observed is what a run's observers recorded: the audit report, every
// telemetry event and aggregate, and every xray span (the profile is part
// of the Result).
func observed(t *testing.T, cfg core.Config) string {
	t.Helper()
	var out bytes.Buffer
	if a, ok := cfg.Check.(*check.Auditor); ok {
		fmt.Fprintf(&out, "audit: %+v\n", a.Report())
	}
	if cfg.Telemetry != nil {
		if err := cfg.Telemetry.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		out.WriteString(cfg.Telemetry.Summary(cfg.Duration))
	}
	if cfg.Xray != nil {
		js, err := cfg.Xray.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out.Write(js)
	}
	return out.String()
}

// TestTicklessObserversMatchEager extends the contract to runs with
// observers attached. With the auditor (whose tick subscription keeps the
// system from ever going dormant, so only inline ticks apply) and with
// telemetry, the profiler and the xray tracer (which leave dormancy on, so
// replayed sampler and governor firings must emit exactly what popped ones
// do), every app produces the same Result, engine counters and observer
// output as the eager reference.
func TestTicklessObserversMatchEager(t *testing.T) {
	variants := []struct {
		name   string
		attach func(*core.Config)
	}{
		{"audited", func(c *core.Config) { c.Check = check.New() }},
		{"observed", func(c *core.Config) {
			c.Telemetry = &telemetry.Collector{MaxEvents: -1}
			c.Profiler = profile.New()
			c.Xray = xray.New()
		}},
	}
	for _, v := range variants {
		for _, app := range apps.All() {
			v, app := v, app
			t.Run(fmt.Sprintf("%s/%s", v.name, app.Name), func(t *testing.T) {
				t.Parallel()
				build := func() core.Config {
					cfg := core.DefaultConfig(app)
					cfg.Duration = 4*event.Second + 2*event.Millisecond
					v.attach(&cfg)
					return cfg
				}
				wantCfg, gotCfg := build(), build()
				want := core.RunTrial(t, wantCfg, true)
				got := core.RunTrial(t, gotCfg, false)
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
				if g, w := observed(t, gotCfg), observed(t, wantCfg); g != w {
					t.Fatalf("observer output diverged from the eager run's (%d vs %d bytes)", len(g), len(w))
				}
			})
		}
	}
}
