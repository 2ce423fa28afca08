// Telemetry: attach an event-level collector to a run and inspect what the
// scheduler, governor, and power model actually did — every migration with
// its reason, every frequency decision with the load that triggered it, and
// latency/frame-time percentiles — rather than just the end-of-run averages.
package main

import (
	"fmt"
	"log"

	"biglittle"
)

func main() {
	app, err := biglittle.AppByName("angry_bird")
	if err != nil {
		log.Fatal(err)
	}

	cfg := biglittle.DefaultConfig(app)
	cfg.Duration = 15 * biglittle.Second
	cfg.Seed = 7

	tel := biglittle.NewTelemetry()
	cfg.Telemetry = tel

	r := biglittle.Run(cfg)

	fmt.Printf("ran %s for %v on %s\n\n", r.App, r.Duration, r.Cores)
	fmt.Print(tel.Summary(cfg.Duration))

	// Aggregates are queryable directly: how often did the HMP scheduler
	// move work up versus down, and did it agree with the Result?
	fmt.Printf("\nup-migrations:   %d\n", tel.CountReason(biglittle.EvMigration, "up-threshold"))
	fmt.Printf("down-migrations: %d\n", tel.CountReason(biglittle.EvMigration, "down-threshold"))
	fmt.Printf("cross-check:     telemetry %d == Result.HMPMigrations %d\n",
		tel.HMPMigrations(), r.HMPMigrations)

	// Frame-time distribution for the FPS-oriented apps (milliseconds).
	if h := tel.Histogram("frame_time_ms"); h.Count() > 0 {
		fmt.Printf("frame times:     p50 %.1f ms, p99 %.1f ms over %d frames\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Count())
	}

	// A streaming subscriber sees events as they happen; re-run with one to
	// count governor decisions per cluster without buffering anything.
	decisions := map[int]int{}
	tel2 := biglittle.NewTelemetry()
	tel2.MaxEvents = -1 // unbounded buffer (short run)
	tel2.OnEvent(func(ev biglittle.TelemetryEvent) {
		if ev.Kind == biglittle.EvGovernor {
			decisions[ev.Cluster]++
		}
	})
	cfg.Telemetry = tel2
	biglittle.Run(cfg)
	fmt.Printf("\ngovernor decisions per cluster (streaming count): %v\n", decisions)
}
