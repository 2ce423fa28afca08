package cli

import (
	"flag"
	"strings"
	"testing"
	"time"

	"biglittle/internal/apps"
	"biglittle/internal/core"
)

func TestIntsStrict(t *testing.T) {
	got, err := Ints("10, 20,40")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 40 {
		t.Fatalf("Ints = %v", got)
	}
	for _, bad := range []string{"", ",", "  ,  ", "10,x,40", "1.5"} {
		if _, err := Ints(bad); err == nil {
			t.Errorf("Ints(%q): expected error", bad)
		}
	}
}

func TestResolveApps(t *testing.T) {
	all, err := ResolveApps("")
	if err != nil || len(all) != 12 {
		t.Fatalf("ResolveApps(\"\") = %d apps, %v; want the twelve-app suite", len(all), err)
	}
	one, err := ResolveApps("bbench")
	if err != nil || len(one) != 1 || one[0].Name != "bbench" {
		t.Fatalf("ResolveApps(bbench) = %v, %v", one, err)
	}
	if _, err := ResolveApps("nonexistent"); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestRegisterExperimentAndRunner(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := RegisterExperiment(fs, 15*time.Second)
	if err := fs.Parse([]string{"-seed", "7", "-workers", "3", "-cache-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if e.Seed != 7 || e.Duration != 15*time.Second || e.Workers != 3 {
		t.Fatalf("parsed experiment = %+v", e)
	}
	r, err := e.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache == nil {
		t.Fatal("cache should be on by default")
	}
	o := e.Options(r)
	if o.Seed != 7 || o.Runner != r {
		t.Fatalf("options = %+v", o)
	}

	e.NoCache = true
	r2, err := e.Runner()
	if err != nil || r2.Cache != nil {
		t.Fatalf("-no-cache runner = %+v, %v; want nil cache", r2, err)
	}
}

func TestRunnerRemoteWiring(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := RegisterExperiment(fs, 15*time.Second)
	if err := fs.Parse([]string{"-remote", "http://127.0.0.1:8377", "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if r.Remote == nil {
		t.Fatal("-remote did not install a fleet executor")
	}
	// Remote pool slots wait on the coordinator, not a CPU: the default
	// widens so a sweep keeps the fleet busy.
	if r.Workers != 16 {
		t.Fatalf("remote default workers = %d, want 16", r.Workers)
	}

	// An explicit -workers wins.
	e.Workers = 2
	r2, err := e.Runner()
	if err != nil || r2.Workers != 2 {
		t.Fatalf("explicit workers = %d, %v; want 2", r2.Workers, err)
	}

	// Without -remote, no executor is attached.
	e.Remote = ""
	r3, err := e.Runner()
	if err != nil || r3.Remote != nil {
		t.Fatalf("runner without -remote has an executor: %+v, %v", r3.Remote, err)
	}
}

func TestApplyOverrides(t *testing.T) {
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(app)
	if err := ApplyOverrides(&cfg, "up=350, down=128, governor=ondemand, sample-ms=60, cores=L2+B4, seed=7"); err != nil {
		t.Fatal(err)
	}
	if cfg.Sched.UpThreshold != 350 || cfg.Sched.DownThreshold != 128 {
		t.Fatalf("thresholds = %d/%d", cfg.Sched.UpThreshold, cfg.Sched.DownThreshold)
	}
	if cfg.Governor != core.Ondemand || cfg.Gov.SampleMs != 60 {
		t.Fatalf("governor = %v sample=%d", cfg.Governor, cfg.Gov.SampleMs)
	}
	if cfg.Cores.Little != 2 || cfg.Cores.Big != 4 {
		t.Fatalf("cores = %+v", cfg.Cores)
	}
	if cfg.Seed != 7 {
		t.Fatalf("seed = %d", cfg.Seed)
	}
	// Empty spec is a no-op.
	before := cfg.Sched
	if err := ApplyOverrides(&cfg, ""); err != nil || cfg.Sched != before {
		t.Fatalf("empty spec changed the config or errored: %v", err)
	}
}

func TestApplyOverridesErrors(t *testing.T) {
	app, _ := apps.ByName("bbench")
	for _, bad := range []string{"up", "bogus=1", "up=abc", "governor=warp", "scheduler=warp", "cores=XYZ"} {
		cfg := core.DefaultConfig(app)
		if err := ApplyOverrides(&cfg, bad); err == nil {
			t.Errorf("override %q did not error", bad)
		}
	}
	cfg := core.DefaultConfig(app)
	if err := ApplyOverrides(&cfg, "bogus=1"); err == nil || !strings.Contains(err.Error(), "governor") {
		t.Errorf("unknown-key error should list the vocabulary: %v", err)
	}
}

func TestParsePhases(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // error substring; "" = valid
	}{
		{"bbench", "want app:duration"},
		{"warp_drive:2s", "unknown app"},
		{"bbench:two", "invalid duration"},
		{"bbench:0s", "must be positive"},
		{"browser:-1s,video_player:1s", "must be positive"},
		{"bbench:2s", ""},
		{"browser:20s, fifa15:1m30s,video_player:500ms", ""},
	} {
		phases, err := ParsePhases(tc.spec)
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParsePhases(%q) error = %v, want one containing %q", tc.spec, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePhases(%q): %v", tc.spec, err)
			continue
		}
		parts := strings.Split(tc.spec, ",")
		if len(phases) != len(parts) {
			t.Fatalf("ParsePhases(%q) = %d phases, want %d", tc.spec, len(phases), len(parts))
		}
		for i, part := range parts {
			name, dur, _ := strings.Cut(strings.TrimSpace(part), ":")
			d, _ := time.ParseDuration(dur)
			if phases[i].App.Name != name || int64(phases[i].Duration) != d.Nanoseconds() {
				t.Errorf("ParsePhases(%q)[%d] = %s for %v, want %s for %v",
					tc.spec, i, phases[i].App.Name, phases[i].Duration, name, d)
			}
		}
	}
}
