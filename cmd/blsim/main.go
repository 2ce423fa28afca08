// Command blsim runs one simulation and prints what its observers saw: by
// default the full characterization of one app on one platform
// configuration (performance, power, TLP, core-usage matrix, efficiency
// states, frequency residency). -window adds a systrace-style per-core
// timeline of one window plus per-thread core-type residency (-chrome
// exports it; without -duration the run stops where the window ends).
// -telemetry adds the event-level summary; -csv, -tel-json and -prom dump
// the raw telemetry. -set tunes the run with the override vocabulary bldiff
// and blexplore share. -phases runs a multi-app usage session instead.
//
// Usage:
//
//	blsim -app bbench -cores L4+B1 -duration 30s -set governor=ondemand,up=600
//	blsim -app eternity_warrior -window 5s+300ms -chrome trace.json
//	blsim -app fifa15 -telemetry -csv events.csv -tel-json metrics.json
//	blsim -app video_player -prom -   # Prometheus text format to stdout
//	blsim -phases browser:20s,pdf_reader:15s,eternity_warrior:20s
//	blsim -list
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"biglittle"
	"biglittle/internal/cli"
	"biglittle/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; exit codes: 0 ok, 1 error, 2 usage error or
// audit violation.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName   = fs.String("app", "pdf_reader", "application model to run (see -list)")
		specFile  = fs.String("spec", "", "load the application from a JSON workload spec instead")
		phasesArg = fs.String("phases", "", "run a multi-app session of comma-separated app:duration phases instead of one app (takes only -seed)")
		list      = fs.Bool("list", false, "list application models and exit")
		cores     = fs.String("cores", "L4+B4", "hotplug configuration, e.g. L2, L4+B1")
		duration  = fs.Duration("duration", 30*time.Second, "simulated duration (with -window and no -duration: until the window ends)")
		seed      = fs.Int64("seed", 1, "workload random seed")
		set       = fs.String("set", "", "config overrides as key=value,..., e.g. governor=ondemand,sample-ms=40 (an unknown key lists the vocabulary)")
		matrix    = fs.Bool("matrix", false, "print the Table IV active-core matrix")
		asJSON    = fs.Bool("json", false, "emit the full result as JSON instead of text")
		doCheck   = fs.Bool("check", false, "audit the run with the invariant checker; exit 2 on any violation")
		xrayFile  = fs.String("xray", "", "record causal decision spans and write the JSON dump to this file (query with blxray)")
		window    = fs.String("window", "", "render the per-core timeline and per-thread residency of the window FROM+LEN, e.g. 5s+300ms")
		width     = fs.Int("width", 120, "maximum timeline columns (0 = one per tick)")
		chrome    = fs.String("chrome", "", "write the -window timeline as a Chrome trace-event JSON file (open in chrome://tracing)")
		telSum    = fs.Bool("telemetry", false, "print the event-level telemetry summary")
		csvPath   = fs.String("csv", "", "write the raw telemetry event log as CSV")
		telJSON   = fs.String("tel-json", "", "write the telemetry events and metric registries as JSON")
		promPath  = fs.String("prom", "", "write the telemetry metric registries in Prometheus text format (\"-\" = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	given, notSession := map[string]bool{}, ""
	fs.Visit(func(f *flag.Flag) {
		given[f.Name] = true
		if notSession == "" && f.Name != "phases" && f.Name != "seed" {
			notSession = f.Name
		}
	})
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "blsim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *list {
		for _, a := range biglittle.Apps() {
			fmt.Fprintf(stdout, "%-18s %-8s %s\n", a.Name, a.Metric, a.Desc)
		}
		return 0
	}
	if *phasesArg != "" {
		if notSession != "" {
			return usage("-phases runs a multi-app session and takes only -seed, not -%s", notSession)
		}
		phases, err := cli.ParsePhases(*phasesArg)
		if err != nil {
			return fail(err)
		}
		scfg := biglittle.NewSession(phases...)
		scfg.Seed = *seed
		sr := biglittle.RunSession(scfg)
		fmt.Fprint(stdout, biglittle.RenderSession(sr))
		fmt.Fprintf(stdout, "\nbattery at this mix: %.1f hours of continuous use\n",
			biglittle.GalaxyS5Pack().HoursAt(sr.AvgPowerMW))
		return 0
	}
	if *window == "" && (given["chrome"] || given["width"]) {
		return usage("-chrome and -width render the timeline; they need -window")
	}
	if *asJSON && (*window != "" || *telSum || *promPath == "-") {
		return usage("-json prints only the result; -window, -telemetry and -prom - would mix text into it")
	}

	app, err := biglittle.AppByName(*appName)
	if *specFile != "" {
		var data []byte
		if data, err = os.ReadFile(*specFile); err == nil {
			app, err = biglittle.LoadSpec(data)
		}
	}
	if err != nil {
		return fail(err)
	}
	cfg := biglittle.DefaultConfig(app)
	cfg.Seed = *seed
	cfg.Duration = biglittle.Time(duration.Nanoseconds())
	if cfg.Cores, err = biglittle.ParseCoreConfig(*cores); err != nil {
		return fail(err)
	}
	if err := cli.ApplyOverrides(&cfg, *set); err != nil {
		return fail(err)
	}

	var aud *biglittle.Auditor
	if *doCheck {
		aud = biglittle.NewAuditor()
		cfg.Check = aud
	}
	if *xrayFile != "" {
		cfg.Xray = biglittle.NewXray()
	}
	var tel *biglittle.Telemetry
	if *window != "" || *telSum || *csvPath != "" || *telJSON != "" || *promPath != "" {
		tel = biglittle.NewTelemetry()
		cfg.Telemetry = tel
	}
	var rec *biglittle.TraceRecorder
	if *window != "" {
		from, to, err := parseWindow(*window)
		if err != nil {
			return usage("%v", err)
		}
		if !given["duration"] {
			cfg.Duration = biglittle.Time(to.Nanoseconds())
		}
		cfg.OnSystem = func(sys *biglittle.SchedSystem) {
			rec = biglittle.AttachTrace(sys, biglittle.Time(from.Nanoseconds()), biglittle.Time(to.Nanoseconds()))
			rec.Tel = tel
		}
	}

	r := biglittle.Run(cfg)

	if rec != nil && len(rec.Samples) == 0 {
		return fail(fmt.Errorf("blsim: no samples recorded: the window %s lies beyond the run duration %v; "+
			"lower -window or raise -duration", *window, time.Duration(cfg.Duration)))
	}
	for _, ex := range []struct {
		path string
		data func() ([]byte, error)
	}{
		{*xrayFile, cfg.Xray.JSON},
		{*chrome, rec.ChromeTrace},
		{*csvPath, buffered(tel.WriteCSV)},
		{*telJSON, tel.JSON},
		{*promPath, buffered(tel.WritePrometheus)},
	} {
		if ex.path == "" || ex.path == "-" {
			continue
		}
		data, err := ex.data()
		if err == nil {
			err = os.WriteFile(ex.path, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if xr := cfg.Xray; xr != nil {
		fmt.Fprintf(stderr, "xray: %d spans (%d dropped) -> %s\n", xr.Len(), xr.Dropped(), *xrayFile)
	}
	if aud != nil {
		rep := aud.Report()
		rep.Violations = append(rep.Violations, biglittle.CheckResult(r)...)
		fmt.Fprint(stderr, rep.String())
		if !rep.Ok() {
			return 2
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return fail(err)
		}
		return 0
	}
	printReport(stdout, r, cfg, *matrix)
	if rec != nil {
		printTimeline(stdout, rec, *width)
	}
	if *telSum {
		fmt.Fprint(stdout, "\n"+tel.Summary(cfg.Duration))
		fmt.Fprintf(stdout, "\nscheduler cross-check: Result.HMPMigrations=%d telemetry=%d\n",
			r.HMPMigrations, tel.HMPMigrations())
	}
	if *promPath == "-" {
		if err := tel.WritePrometheus(stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

// parseWindow parses -window's FROM+LEN into the window's start and end.
func parseWindow(s string) (from, to time.Duration, err error) {
	a, b, _ := strings.Cut(s, "+")
	from, errFrom := time.ParseDuration(a)
	length, errLen := time.ParseDuration(b)
	if errFrom != nil || errLen != nil || from < 0 || length <= 0 {
		return 0, 0, fmt.Errorf("bad -window %q (want FROM+LEN with LEN > 0, e.g. 5s+300ms)", s)
	}
	return from, from + length, nil
}

// printReport writes the text characterization of one run.
func printReport(w io.Writer, r biglittle.Result, cfg biglittle.Config, matrix bool) {
	fmt.Fprintf(w, "app: %s (%s) on %s for %v, seed %d\n", r.App, r.Metric, r.Cores, time.Duration(cfg.Duration), cfg.Seed)
	if r.Metric == biglittle.FPS {
		fmt.Fprintf(w, "performance: %.1f avg FPS, %.1f min FPS (%d frames)\n", r.AvgFPS, r.MinFPS, r.Frames)
	} else {
		fmt.Fprintf(w, "performance: %v mean latency, %v worst (%d interactions)\n",
			r.MeanLatency, r.WorstLatency, r.Interactions)
	}
	fmt.Fprintf(w, "power: %.0f mW average, %.1f J total\n", r.AvgPowerMW, r.EnergyMJ/1000)
	fmt.Fprintf(w, "TLP: %.2f   idle %.1f%%   little-only %.1f%%   big-active %.1f%%\n",
		r.TLP.TLP, r.TLP.IdlePct, r.TLP.LittleOnlyPct, r.TLP.BigPct)
	fmt.Fprintf(w, "efficiency states: min %.1f%%  <50%% %.1f%%  <70%% %.1f%%  70-95%% %.1f%%  >95%% %.1f%%  full %.1f%%\n",
		r.Eff[0], r.Eff[1], r.Eff[2], r.Eff[3], r.Eff[4], r.Eff[5])
	fmt.Fprintf(w, "HMP migrations: %d\n", r.HMPMigrations)

	if matrix {
		fmt.Fprintln(w, biglittle.RenderTable4(r))
	}
	fmt.Fprintln(w, "little cluster residency (%, by MHz):")
	for i, f := range r.LittleFreqs {
		fmt.Fprintf(w, "  %4d: %5.1f\n", f, r.LittleResidency[i])
	}
	fmt.Fprintln(w, "big cluster residency (%, by MHz):")
	for i, f := range r.BigFreqs {
		fmt.Fprintf(w, "  %4d: %5.1f\n", f, r.BigResidency[i])
	}
}

// printTimeline writes the window's timeline, then each thread's core-type
// residency (in CoreType order, so the output is deterministic) and its
// runnable-wait share.
func printTimeline(w io.Writer, rec *biglittle.TraceRecorder, width int) {
	fmt.Fprint(w, "\n"+rec.Render(width))
	fmt.Fprintln(w, "\nper-thread core-type residency and runnable-wait in window:")
	res := rec.Residency()
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := res[name]
		fmt.Fprintf(w, "  %-20s", name)
		for typ := platform.Little; typ <= platform.Tiny; typ++ {
			if frac, ok := tr.Run[typ]; ok {
				fmt.Fprintf(w, " %v %.0f%%", typ, 100*frac)
			}
		}
		if tr.WaitTicks > 0 {
			fmt.Fprintf(w, "  (waited %.0f%% of %d on-queue ticks)",
				100*tr.WaitShare(), tr.RunTicks+tr.WaitTicks)
		}
		fmt.Fprintln(w)
	}
}

// buffered adapts a streaming exporter to the export table's byte form.
func buffered(write func(io.Writer) error) func() ([]byte, error) {
	return func() ([]byte, error) {
		var b bytes.Buffer
		err := write(&b)
		return b.Bytes(), err
	}
}
