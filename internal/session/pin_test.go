package session

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biglittle/internal/check"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/profile"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
	"biglittle/internal/xray"
)

var updatePin = flag.Bool("session-pin-update", false, "rewrite testdata/session_pin.txt from current simulator output")

// pinSession runs the pinned three-phase session with every observer on,
// advancing in steps of step (0: one Advance to the end), and renders every
// observable output as text.
func pinSession(t *testing.T, step event.Time) string {
	t.Helper()
	cfg := DefaultConfig(
		Phase{App: mustApp(t, "browser"), Duration: 3 * event.Second},
		Phase{App: mustApp(t, "eternity_warrior"), Duration: 3 * event.Second},
		Phase{App: mustApp(t, "video_player"), Duration: 3 * event.Second},
	)
	th := thermal.Default()
	cfg.Thermal = &th
	tel := telemetry.NewCollector()
	cfg.Telemetry = tel
	prof := profile.New()
	cfg.Profiler = prof
	xr := xray.New()
	cfg.Xray = xr
	aud := check.New()
	cfg.Check = aud
	dig := &delta.Recorder{}
	cfg.Digest = dig

	l := NewLive(cfg)
	if step <= 0 {
		step = l.Duration()
	}
	for to := step; !l.Advance(to); to += step {
	}
	r := l.Result()

	var b strings.Builder
	b.WriteString(Render(r))
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "phase %v %v %v %v %v %v %v %v %v\n",
			p.App, p.Duration, p.AvgPowerMW, p.EnergyJ, p.DrainPct, p.AvgFPS, p.Interactions, p.MeanLatency, p.BigPct)
	}
	fmt.Fprintf(&b, "totals %v %v %v %v %v %v\n",
		r.Duration, r.TotalEnergyJ, r.TotalDrainPct, r.AvgPowerMW, r.MaxTempC, r.ThrottledPct)
	chain := dig.Chain()
	fmt.Fprintf(&b, "digest window %v fingerprint %016x\n", chain.Window, chain.Fingerprint())
	for i, d := range chain.Digests {
		fmt.Fprintf(&b, "digest %d %016x\n", i, d)
	}
	b.WriteString(aud.Report().String())
	for _, k := range telemetry.Kinds() {
		fmt.Fprintf(&b, "telemetry %v %d\n", k, tel.Count(k))
	}
	fmt.Fprintf(&b, "telemetry total %d hmp %d\n", tel.TotalEvents(), tel.HMPMigrations())
	for _, name := range []string{"latency_ms", "frame_time_ms"} {
		h := tel.Histogram(name)
		fmt.Fprintf(&b, "histogram %s n=%d mean=%v max=%v\n", name, h.Count(), h.Mean(), h.Max())
	}
	fmt.Fprintf(&b, "xray spans %d\n", xr.Len())
	b.WriteString(prof.Snapshot(r.Duration).Summary())
	return b.String()
}

// TestSessionPin pins a fully observed session byte for byte: the rendered
// table, every PhaseResult field, the digest chain, the auditor report, the
// telemetry aggregates, and the attribution summary. Advancing in uneven
// steps must reproduce the same bytes. Regenerate with
// `go test ./internal/session -run TestSessionPin -session-pin-update`.
func TestSessionPin(t *testing.T) {
	got := pinSession(t, 0)
	path := filepath.Join("testdata", "session_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("session output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
	if stepped := pinSession(t, 700*event.Millisecond); stepped != got {
		t.Fatalf("stepped Advance diverged from a single Advance:\n%s\nvs\n%s", stepped, got)
	}
}
