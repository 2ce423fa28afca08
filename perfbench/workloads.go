package main

import (
	"bytes"
	"fmt"

	"biglittle"
	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
)

// Workload shapes. The report is cmd/blreport's default run; the sweeps are
// cmd/blsweep over sample-ms, once forked and once through the fleet.
const (
	reportDuration = 30 * event.Second
	forkDuration   = 60 * event.Second
	forkAt         = 45 * event.Second
	fleetDuration  = 15 * event.Second
	sweepParam     = "sample-ms"
	// defaultSampleMs is the interactive governor's default sample period:
	// the swept value whose forked continuation must equal a from-scratch
	// run of the fork base.
	defaultSampleMs = 20
)

var sweepValues = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}

// sectionNames are the report's sections in order; each names one
// analysis.<name>_s span metric.
var sectionNames = []string{
	"summary", "fig2", "fig3", "fig4", "fig5", "fig6", "characterize",
	"coreconfigs", "tuning", "tiny", "schedulers", "governors", "idle",
	"thermal", "cachesweep", "predictors", "battery", "multitask",
	"seedstats", "edp", "crossplatform", "fidelity",
}

// writeReport renders cmd/blreport's full report into buf, calling section
// around each analysis driver so the caller can time it. The text must
// match blreport's stdout byte for byte (report_full.txt at seed 1).
func writeReport(buf *bytes.Buffer, o biglittle.ExperimentOptions, section func(name string, fn func())) {
	header := func(title string) { fmt.Fprintf(buf, "\n===== %s =====\n\n", title) }

	header("headline findings")
	section("summary", func() { buf.WriteString(biglittle.RenderSummary(biglittle.Summarize(o))) })

	header("§III-A: architectural characteristics")
	section("fig2", func() { buf.WriteString(biglittle.RenderFig2(biglittle.Fig2(o))) })
	buf.WriteString("\n")
	section("fig3", func() { buf.WriteString(biglittle.RenderFig3(biglittle.Fig3(o))) })
	buf.WriteString("\n")
	section("fig4", func() { buf.WriteString(biglittle.RenderFig4(biglittle.Fig4(o))) })
	buf.WriteString("\n")
	section("fig5", func() { buf.WriteString(biglittle.RenderFig5(biglittle.Fig5(o))) })

	header("§III-B: power by core utilization")
	section("fig6", func() { buf.WriteString(biglittle.RenderFig6(biglittle.Fig6(o))) })

	header("§V: application characterization (Tables III-V, Figures 9/10)")
	section("characterize", func() {
		results := biglittle.Characterize(o)
		buf.WriteString(biglittle.RenderTable3(results))
		buf.WriteString("\n")
		for _, r := range results {
			buf.WriteString(biglittle.RenderTable4(r))
			buf.WriteString("\n")
		}
		buf.WriteString(biglittle.RenderTable5(results))
		buf.WriteString("\n")
		buf.WriteString(biglittle.RenderLittleResidency(results))
		buf.WriteString("\n")
		buf.WriteString(biglittle.RenderBigResidency(results))
	})

	header("§V-C: core configurations (Figures 7/8)")
	section("coreconfigs", func() { buf.WriteString(biglittle.RenderCoreConfigs(biglittle.CoreConfigs(o))) })

	header("§VI-C: governor and HMP parameter study (Figures 11-13)")
	section("tuning", func() { buf.WriteString(biglittle.RenderTuning(biglittle.TuningStudy(o))) })

	header("extension: §VI-B tiny-core proposal")
	section("tiny", func() { buf.WriteString(biglittle.RenderTiny(biglittle.TinyStudy(o))) })

	header("extension: §IV-A scheduling policies")
	section("schedulers", func() { buf.WriteString(biglittle.RenderSchedulers(biglittle.SchedulerStudy(o))) })

	header("extension: §IV-D DVFS governors")
	section("governors", func() { buf.WriteString(biglittle.RenderGovernors(biglittle.GovernorStudy(o))) })

	header("extension: cpuidle deep idle states")
	section("idle", func() { buf.WriteString(biglittle.RenderIdle(biglittle.IdleStudy(o))) })

	header("extension: thermal throttling under sustained load")
	section("thermal", func() { buf.WriteString(biglittle.RenderThermal(biglittle.ThermalStudy(o))) })

	header("extension: L2-size ablation")
	section("cachesweep", func() { buf.WriteString(biglittle.RenderCacheSweep(biglittle.CacheSweep(o))) })

	header("extension: branch predictor validation")
	section("predictors", func() { buf.WriteString(biglittle.RenderPredictors(biglittle.PredictorStudy(o))) })

	header("extension: battery life and per-thread energy")
	section("battery", func() { buf.WriteString(biglittle.RenderBattery(biglittle.BatteryStudy(o))) })

	header("extension: multitasking")
	section("multitask", func() { buf.WriteString(biglittle.RenderMultitask(biglittle.MultitaskStudy(o))) })

	header("extension: run-to-run variation (5 seeds)")
	section("seedstats", func() { buf.WriteString(biglittle.RenderSeedStats(biglittle.SeedStats(o, 5))) })

	header("extension: energy-delay product by core configuration")
	section("edp", func() { buf.WriteString(biglittle.RenderEDP(biglittle.EDP(o))) })

	header("extension: cross-platform (Snapdragon 810-class SoC)")
	section("crossplatform", func() { buf.WriteString(biglittle.RenderCrossPlatform(biglittle.CrossPlatform(o))) })

	header("fidelity score vs the paper's published tables")
	section("fidelity", func() { buf.WriteString(biglittle.RenderFidelity(biglittle.Fidelity(o))) })
}

// sweepJobs builds cmd/blsweep's job list for sample-ms over sweepValues on
// all twelve apps. With fork set, every value of one app resumes from one
// shared prefix of the app's default config warmed to forkAt — one spec
// pointer per app, as blsweep -fork-at builds it.
func sweepJobs(seed int64, d event.Time, fork bool) []lab.Job {
	var jobs []lab.Job
	for _, app := range apps.All() {
		base := core.DefaultConfig(app)
		base.Seed = seed
		base.Duration = d
		var spec *lab.ForkSpec
		if fork {
			spec = &lab.ForkSpec{Base: base, At: forkAt}
		}
		for _, v := range sweepValues {
			cfg := base
			cfg.Gov.SampleMs = v
			jobs = append(jobs, lab.Job{Config: cfg, Fork: spec})
		}
	}
	return jobs
}

// sweepCSV renders sweep results exactly as cmd/blsweep prints them.
func sweepCSV(results []core.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "app,metric,%s,avg_power_mw,energy_j,mean_latency_ms,avg_fps,min_fps,tlp,big_pct,migrations\n", sweepParam)
	for i, r := range results {
		b.WriteString(sweepRow(r, sweepValues[i%len(sweepValues)]))
	}
	return b.Bytes()
}

func sweepRow(r core.Result, v int) string {
	return fmt.Sprintf("%s,%s,%d,%.1f,%.3f,%.2f,%.2f,%.2f,%.3f,%.2f,%d\n",
		r.App, r.Metric, v,
		r.AvgPowerMW, r.EnergyMJ/1000,
		r.MeanLatency.Milliseconds(), r.AvgFPS, r.MinFPS,
		r.TLP.TLP, r.TLP.BigPct, r.HMPMigrations)
}
