package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"biglittle"
	"biglittle/internal/fleet"
	"biglittle/internal/lab"
	"biglittle/internal/telemetry"
)

// Each repetition runs in a fresh child process of the benchmark binary,
// the way users run blreport and blsweep. A process-wide memo in
// internal/uarch keeps recorded traces for the life of the process: a
// second report in the same process spends ~0.1 s instead of ~1.2 s in the
// trace-driven studies, so in-process repeats would not measure what a
// user pays. A fresh process also isolates peak RSS per repetition.
//
// Roles: "boot" sets up and exits (a set-up sample), "fill" writes a
// report into an empty cache (report-warm's set-up), "rep" is one timed
// repetition.

// repOut is what a child reports to the parent as its last stdout line.
type repOut struct {
	Role      string             `json:"role"`
	Traced    bool               `json:"traced"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Mallocs   uint64             `json:"mallocs"`
	Counts    map[string]int64   `json:"counts"` // must repeat exactly across repetitions
	Exact     map[string]float64 `json:"exact"`  // traced values that must repeat exactly
	Layer     map[string]float64 `json:"layer"`  // traced per-layer metrics
	Out       string             `json:"out"`    // file holding the workload's output
	Errors    []string           `json:"errors"`
}

type childArgs struct {
	role, workload, work, cache string
	seed                        int64
	rep                         int
	traced                      bool
}

// runChild executes one child role and prints its repOut.
func runChild(a childArgs) error {
	n := runtime.GOMAXPROCS(0)
	out := repOut{Role: a.role, Traced: a.traced, Counts: map[string]int64{}, Exact: map[string]float64{}, Layer: map[string]float64{}}
	var tr *tracer
	var sh *shim
	if a.traced {
		tr = newTracer()
		sh = &shim{tr: tr}
	}

	// Set-up: everything the workload needs before its timed phase.
	runner := &lab.Runner{Workers: n}
	var cache *lab.Cache
	var rig *fleetRig
	var jobs []lab.Job
	switch a.workload {
	case "report-cold":
	case "report-warm", "sweep-fork":
		c, err := lab.Open(a.cache)
		if err != nil {
			return err
		}
		cache, runner.Cache = c, c
		if a.workload == "sweep-fork" {
			jobs = sweepJobs(a.seed, forkDuration, true)
		}
	case "sweep-fleet":
		jobs = sweepJobs(a.seed, fleetDuration, false)
		var err error
		if rig, err = startFleet(n, a.traced, tr); err != nil {
			return err
		}
		defer rig.stop()
		runner.Remote = rig.client
		if sh != nil {
			sh.inner = rig.client
		}
	default:
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	if sh != nil {
		runner.Remote = sh
	}
	fmt.Println("ready")
	if a.role == "boot" {
		return nil
	}

	// Timed phase.
	var prof bytes.Buffer
	if a.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var output []byte
	switch a.workload {
	case "report-cold", "report-warm":
		var buf bytes.Buffer
		writeReport(&buf, biglittle.ExperimentOptions{Duration: reportDuration, Seed: a.seed, Runner: runner}, func(name string, fn func()) {
			id, end := tr.begin("analysis."+name, 0)
			if tr != nil {
				tr.current.Store(id)
			}
			fn()
			end()
		})
		output = buf.Bytes()
	default:
		results, err := runner.RunAll(jobs)
		if err != nil {
			out.Errors = append(out.Errors, err.Error())
		}
		output = sweepCSV(results)
	}
	out.WallS = time.Since(t0).Seconds()
	out.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if a.traced {
		pprof.StopCPUProfile()
	}
	out.PeakRSSMB = peakRSSMB()
	out.Mallocs = ms1.Mallocs - ms0.Mallocs
	out.Out = filepath.Join(a.work, fmt.Sprintf("out-%s-%d.txt", a.role, a.rep))
	if err := os.WriteFile(out.Out, output, 0o644); err != nil {
		return err
	}

	s := runner.Stats()
	if sh != nil {
		// Jobs the shim simulated are the ones the runner would have; it
		// counts them as remote.
		s.Simulated += sh.executed
		s.Remote -= sh.executed
	}
	for k, v := range labCounts(s) {
		out.Counts[k] = v
	}
	if rig != nil {
		for k, v := range rig.counts() {
			out.Counts[k] = v
		}
	}

	if a.traced {
		layer := out.Layer
		layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		layer["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		stacks, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		addModuleCPU(layer, foldProfile(stacks))
		for _, name := range sectionNames {
			if d := tr.durations("analysis." + name); len(d) > 0 {
				layer["analysis."+name+"_s"] = d[0] / 1e3
			}
		}
		fired, simNs := sh.tally()
		if rig != nil {
			for _, w := range rig.shims {
				f, n := w.tally()
				fired, simNs = fired+f, simNs+n
			}
		}
		runs := tr.durations("core.Run")
		if len(runs) > 0 {
			layer["core.run_ms_p50"] = quantile(runs, 0.5)
			layer["core.run_ms_p90"] = quantile(runs, 0.9)
			layer["core.sim_s_per_cpu_s"] = float64(simNs) / 1e9 / (sum(runs) / 1e3)
			out.Exact["event.fired_per_sim_s"] = float64(fired) / (float64(simNs) / 1e9)
		}
		layer["core.runs"] = float64(len(runs))
		if s.Jobs > 0 {
			out.Exact["lab.unique_ratio"] = float64(len(sh.fps)) / float64(s.Jobs)
		}
		if rtt := tr.durations("fleet.Client.Execute"); len(rtt) > 0 {
			layer["fleet.rtt_p50_ms"] = quantile(rtt, 0.5)
			layer["fleet.rtt_p90_ms"] = quantile(rtt, 0.9)
			layer["fleet.rtt_samples"] = float64(len(rtt))
		}
		if cache != nil || rig != nil {
			if err := labPass(tr, sh.jobs, cache, filepath.Join(a.work, fmt.Sprintf("shadow-%s-%d", a.role, a.rep))); err != nil {
				return err
			}
			layer["lab.fingerprint_us"] = median(tr.durations("lab.Fingerprint")) * 1e3
			layer["lab.cache_get_ms"] = median(tr.durations("lab.Cache.Get"))
			layer["lab.cache_put_ms"] = median(tr.durations("lab.Cache.Put"))
		}
		if a.workload == "sweep-fork" {
			blobs, fired, simNs, err := snapshotPass(tr, jobs)
			if err != nil {
				return err
			}
			var kb []float64
			for _, b := range blobs {
				kb = append(kb, float64(b)/1024)
			}
			layer["core.snapshot_ms"] = median(tr.durations("core.Snapshot"))
			layer["core.resume_ms"] = median(tr.durations("core.Resume"))
			layer["snapshot.encode_ms"] = median(tr.durations("snapshot.Encode"))
			layer["snapshot.decode_ms"] = median(tr.durations("snapshot.Decode"))
			layer["snapshot.blob_kb"] = median(kb)
			out.Exact["event.fired_per_sim_s"] = float64(fired) / (float64(simNs) / 1e9)
		}
		for k, v := range out.Exact {
			layer[k] = v
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d-%s%d.json", a.workload, a.seed, a.role, a.rep))
		if err := tr.write(path); err != nil {
			return err
		}
	}

	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// labCounts names the runner's Stats counters.
func labCounts(s lab.Stats) map[string]int64 {
	return map[string]int64{
		"lab.jobs": s.Jobs, "lab.hits": s.Hits, "lab.misses": s.Misses,
		"lab.simulated": s.Simulated, "lab.stored": s.Stored, "lab.forks": s.Forks,
		"lab.prefix_hits": s.PrefixHits, "lab.prefix_misses": s.PrefixMisses,
		"lab.prefix_evictions": s.PrefixEvictions, "lab.remote": s.Remote,
		"lab.remote_errors": s.RemoteErrors, "lab.retries": s.Retries,
		"lab.failures": s.Failures,
	}
}

// moduleMetrics are the profile buckets reported as <bucket>.cpu_s.
var moduleMetrics = []string{
	"event", "sched", "pelt", "power", "governor", "metrics", "thermal",
	"platform", "workload", "apps", "altsched", "uarch", "cache", "synth",
	"bpred", "core", "snapshot", "lab", "analysis", "fleet", "gc", "json",
}

// addModuleCPU records each bucket's CPU seconds; buckets without a metric
// of their own join other.cpu_s. profile.coverage_pct is the share of
// profiled CPU charged to a named bucket.
func addModuleCPU(layer map[string]float64, folded map[string]float64) {
	var total, other float64
	for bucket, v := range folded {
		total += v
		if !slices.Contains(moduleMetrics, bucket) {
			other += v
		}
	}
	for _, m := range moduleMetrics {
		layer[m+".cpu_s"] = folded[m]
	}
	layer["other.cpu_s"] = other
	layer["profile.cpu_s"] = total
	if total > 0 {
		layer["profile.coverage_pct"] = 100 * (total - other) / total
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fleetRig is an in-process fleet: a fresh coordinator served over loopback
// HTTP, n workers each simulating one job at a time, and the client the
// sweep's runner submits through. Each participant has its own HTTP
// transport, as separate processes would.
type fleetRig struct {
	coord  *fleet.Coordinator
	tel    *telemetry.Collector
	srv    *http.Server
	served chan struct{} // closed when the server goroutine has exited
	client *fleet.Client
	shims  []*shim // the workers' executors in traced repetitions
	cancel context.CancelFunc
	wg     sync.WaitGroup
	trs    []*http.Transport
}

func startFleet(n int, traced bool, tr *tracer) (*fleetRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleetRig{tel: telemetry.NewCollector()}
	f.coord = fleet.NewCoordinator(fleet.Options{Tel: f.tel})
	mux := http.NewServeMux()
	f.coord.Mount(mux)
	f.srv = &http.Server{Handler: mux}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // always ErrServerClosed once stop closes it
	}()
	base := "http://" + ln.Addr().String()
	newClient := func() *fleet.Client {
		t := http.DefaultTransport.(*http.Transport).Clone()
		f.trs = append(f.trs, t)
		return &fleet.Client{Base: base, HTTP: &http.Client{Transport: t}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < n; i++ {
		r := &lab.Runner{Workers: 1}
		if traced {
			w := &shim{tr: tr}
			f.shims = append(f.shims, w)
			r.Remote = w
		}
		w := &fleet.Worker{Client: newClient(), Runner: r, ID: fmt.Sprintf("worker-%d", i)}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // nil once ctx is cancelled; outages are retried inside
		}()
	}
	f.client = newClient()
	return f, nil
}

// stop cancels the workers, waits for them, and shuts the server down,
// returning once every goroutine the rig started has exited.
func (f *fleetRig) stop() {
	f.cancel()
	f.wg.Wait()
	f.coord.Close()
	f.srv.Close()
	<-f.served
	for _, t := range f.trs {
		t.CloseIdleConnections()
	}
}

func (f *fleetRig) counts() map[string]int64 {
	c := func(name string) int64 { return f.tel.Counter(name).Value() }
	return map[string]int64{
		"fleet.leases_granted": c("fleet_leases_granted"),
		"fleet.deduped":        c("fleet_jobs_deduped"),
		"fleet.retries":        c("fleet_retries"),
		"fleet.lease_expiries": c("fleet_lease_expiries"),
		"fleet.backpressure":   c("fleet_backpressure"),
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
