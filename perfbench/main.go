// Command perfbench is the repository benchmark: it runs the commands people
// run — a cold full report, the same report against a warm result cache, a
// snapshot-forked parameter sweep and the same kind of sweep through the
// simulation fleet — checks each one's output, and prints one JSON result.
//
//	perfbench --workload report-cold --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (host time);
// with --trace 1 the per-layer metrics: per-module CPU from a profile of
// each traced repetition, spans recorded around public calls, and the
// lab and fleet counters. Spans are written to .bench_build/traces.
// README.md lists the metrics and which workload each should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

var workloads = []string{"report-cold", "report-warm", "sweep-fork", "sweep-fleet"}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "report-cold", "workload: "+strings.Join(workloads, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed")
		secs     = flag.Float64("seconds", 16, "timed-phase length to measure (whole repetitions; at least two)")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		child    = flag.String("child", "", "internal: run one repetition role in this process")
		work     = flag.String("work", "", "internal: the run's scratch directory")
		cacheDir = flag.String("cache", "", "internal: the repetition's result cache")
		rep      = flag.Int("rep", 0, "internal: repetition number")
	)
	flag.Parse()

	if *child != "" {
		err := runChild(childArgs{role: *child, workload: *workload, work: *work, cache: *cacheDir,
			seed: *seed, rep: *rep, traced: *trace == 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !slices.Contains(workloads, n) || *secs <= 0 || *trace < 0 || *trace > 1 {
			fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", n, *secs, *trace)
			os.Exit(2)
		}
	}
	// With "all", the workloads run one after another and the result
	// carries every workload's metrics as <workload>/<metric>.
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, err := run(n, *seed, *secs, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[n+"/"+k] = m
		}
	}
	data, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// bench is one invocation: one workload, one seed.
type bench struct {
	exe, work string
	workload  string
	seed      int64
	checks    *checker
}

// spawn runs one child role and returns its report with the wall time from
// process start until it was set up ("ready") and until it exited.
func (b *bench) spawn(role string, rep int, traced bool, cacheDir string) (out repOut, readyS, totalS float64, err error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(b.exe, "--child", role, "--workload", b.workload,
		"--seed", strconv.FormatInt(b.seed, 10), "--trace", tr,
		"--work", b.work, "--rep", strconv.Itoa(rep), "--cache", cacheDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return out, 0, 0, err
	}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	readyS = time.Since(t0).Seconds()
	rest, _ := io.ReadAll(rd)
	werr := cmd.Wait()
	totalS = time.Since(t0).Seconds()
	if werr != nil {
		return out, 0, 0, fmt.Errorf("%s %d: %w", role, rep, werr)
	}
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return out, 0, 0, fmt.Errorf("%s %d: no ready line", role, rep)
	}
	if role == "boot" {
		return out, readyS, totalS, nil
	}
	lines := strings.Split(strings.TrimSpace(string(rest)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return out, 0, 0, fmt.Errorf("%s %d: bad report: %w", role, rep, err)
	}
	for _, e := range out.Errors {
		b.checks.fail("%s %d: %s", role, rep, e)
	}
	return out, readyS, totalS, nil
}

// Set-up samples: report-warm's set-up is filling an empty cache with the
// report (setupFills times, each into its own cache); the other workloads'
// set-up is process start until the workload is ready to run — measured on
// every repetition plus setupBoots extra starts (a start costs milliseconds,
// so many samples keep the median steady).
const (
	setupFills = 3
	setupBoots = 15
	maxRunS    = 150 // stop adding repetitions past this, so a run ends within three minutes
)

func run(workload string, seed int64, secs float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	b := &bench{exe: exe, workload: workload, seed: seed, checks: &checker{}}
	b.work, err = filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-seed%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	want, err := expectedOutput(workload, seed)
	if err != nil {
		return nil, err
	}

	var setup []float64
	var fills []repOut
	if workload == "report-warm" {
		for i := 0; i < setupFills; i++ {
			out, _, total, err := b.spawn("fill", i, traced, filepath.Join(b.work, fmt.Sprintf("cache-%d", i)))
			if err != nil {
				return nil, err
			}
			setup = append(setup, total)
			fills = append(fills, out)
		}
	} else {
		for i := 0; i < setupBoots; i++ {
			_, ready, _, err := b.spawn("boot", i, false, filepath.Join(b.work, "boot-cache"))
			if err != nil {
				return nil, err
			}
			setup = append(setup, ready)
		}
	}

	// Timed repetitions until secs of timed phase have been measured: at
	// least two, so exact counts can be compared. A traced run interleaves
	// untraced repetitions (pattern T U T T U T ...) to report the tracing
	// overhead, with at least two traced.
	var reps []repOut
	var timed float64
	var nTraced, nPlain int
	for k := 0; ; k++ {
		tr := traced && k%3 != 1
		cacheDir := filepath.Join(b.work, fmt.Sprintf("cache-%d", k%setupFills))
		if workload == "sweep-fork" {
			cacheDir = filepath.Join(b.work, fmt.Sprintf("fork-cache-%d", k))
		}
		out, ready, _, err := b.spawn("rep", k, tr, cacheDir)
		if err != nil {
			return nil, err
		}
		if workload == "sweep-fork" {
			os.RemoveAll(cacheDir)
		}
		if workload != "report-warm" {
			setup = append(setup, ready)
		}
		reps = append(reps, out)
		timed += out.WallS
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d rep %d (traced %v): wall %.4fs cpu %.4fs rss %.1fMB\n",
			workload, seed, k, tr, out.WallS, out.CPUS, out.PeakRSSMB)
		if tr {
			nTraced++
		} else {
			nPlain++
		}
		enough := timed >= secs && len(reps) >= 2
		if traced {
			enough = timed >= secs && nTraced >= 2 && nPlain >= 1
		}
		if enough || time.Since(start).Seconds() > maxRunS {
			break
		}
	}

	b.checkOutputs(want, fills, reps)
	b.checkCounts(fills, reps)
	if err := b.oracle(reps[0].Out); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = b.tally(fills, reps)
	res.Correct = res.Failed == 0
	if traced {
		b.layerMetrics(res, fills, reps)
	} else {
		endToEnd(res, setup, reps)
	}
	return res, nil
}

// tally counts the operations attempted — the lab jobs of every fill and
// repetition — and those failed: failed jobs plus failed output checks.
func (b *bench) tally(fills, reps []repOut) (attempted, failed int64) {
	for _, r := range append(append([]repOut(nil), fills...), reps...) {
		attempted += r.Counts["lab.jobs"]
		failed += r.Counts["lab.failures"]
	}
	failed += int64(len(b.checks.failures))
	return max(attempted, 1), failed
}

// endToEnd fills the end-to-end metrics: medians over the repetitions.
func endToEnd(res *result, setup []float64, reps []repOut) {
	var wall, cpu, rss, allocs []float64
	for _, r := range reps {
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		rss = append(rss, r.PeakRSSMB)
		if j := r.Counts["lab.jobs"]; j > 0 {
			allocs = append(allocs, float64(r.Mallocs)/float64(j))
		}
	}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["wall_s"] = metric{median(wall), "s"}
	res.Metrics["cpu_s"] = metric{median(cpu), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	res.Metrics["allocs_per_job"] = metric{median(allocs), "count"}
}

// layerMetrics fills the per-layer metrics from the traced repetitions.
func (b *bench) layerMetrics(res *result, fills, reps []repOut) {
	var traced, plain []repOut
	for _, r := range reps {
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	layer := medianLayer(traced)
	if b.workload == "report-warm" {
		// The timed phase only reads the cache, so the lab's per-call
		// timings and the share of distinct jobs come from the traced fills.
		fl := medianLayer(fills)
		for _, k := range []string{"lab.fingerprint_us", "lab.cache_get_ms", "lab.cache_put_ms", "lab.unique_ratio"} {
			layer[k] = fl[k]
		}
	}
	for k, v := range reps[0].Counts {
		layer[k] = float64(v)
	}
	tw, pw := medianOf(traced, func(r repOut) float64 { return r.WallS }), medianOf(plain, func(r repOut) float64 { return r.WallS })
	layer["trace.wall_s"] = tw
	if pw > 0 {
		layer["trace.overhead_pct"] = 100 * (tw - pw) / pw
	}
	layer["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range perLayer() {
		res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
}

func medianOf(rs []repOut, f func(repOut) float64) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// medianLayer is the per-key median of the repetitions' layer metrics.
func medianLayer(rs []repOut) map[string]float64 {
	all := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.Layer {
			all[k] = append(all[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range all {
		out[k] = median(v)
	}
	return out
}

type layerMetric struct{ name, unit, better string }

// perLayer lists the per-layer metrics in BENCHMARK.json order. Metrics a
// workload does not exercise read 0.
func perLayer() []layerMetric {
	var ms []layerMetric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, layerMetric{n, unit, better})
		}
	}
	for _, m := range moduleMetrics {
		add("s", "lower", m+".cpu_s")
	}
	add("s", "lower", "other.cpu_s", "profile.cpu_s")
	add("%", "higher", "profile.coverage_pct")
	add("1/s", "lower", "event.fired_per_sim_s")
	add("count", "lower", "core.runs")
	add("ms", "lower", "core.run_ms_p50", "core.run_ms_p90")
	add("s/s", "higher", "core.sim_s_per_cpu_s")
	add("ms", "lower", "core.snapshot_ms", "core.resume_ms", "snapshot.encode_ms", "snapshot.decode_ms")
	add("KiB", "lower", "snapshot.blob_kb")
	add("count", "lower", "lab.jobs")
	add("count", "higher", "lab.hits")
	add("count", "lower", "lab.misses", "lab.simulated", "lab.stored")
	add("count", "higher", "lab.forks", "lab.prefix_hits")
	add("count", "lower", "lab.prefix_misses", "lab.prefix_evictions")
	add("count", "higher", "lab.remote")
	add("count", "lower", "lab.remote_errors", "lab.retries", "lab.failures")
	add("ratio", "lower", "lab.unique_ratio")
	add("us", "lower", "lab.fingerprint_us")
	add("ms", "lower", "lab.cache_get_ms", "lab.cache_put_ms")
	for _, s := range sectionNames {
		add("s", "lower", "analysis."+s+"_s")
	}
	add("count", "lower", "fleet.leases_granted")
	add("count", "higher", "fleet.deduped")
	add("count", "lower", "fleet.retries", "fleet.lease_expiries", "fleet.backpressure")
	add("ms", "lower", "fleet.rtt_p50_ms", "fleet.rtt_p90_ms")
	add("count", "higher", "fleet.rtt_samples")
	add("count", "lower", "runtime.gc_cycles")
	add("MB", "lower", "runtime.alloc_mb")
	add("s", "lower", "trace.wall_s")
	add("%", "lower", "trace.overhead_pct")
	add("ratio", "lower", "error_rate")
	return ms
}

// expectedOutput loads the reference output a workload is compared with at
// this seed, or nil when there is none for it.
func expectedOutput(workload string, seed int64) ([]byte, error) {
	var path string
	switch {
	case seed != 1:
		return nil, nil
	case strings.HasPrefix(workload, "report-"):
		path = "report_full.txt"
	case workload == "sweep-fork":
		path = filepath.Join("perfbench", "testdata", "sweep_fork_seed1.csv")
	default:
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference output: %w (run from the repository root)", err)
	}
	if len(data) == 0 {
		return nil, errors.New("reference output " + path + " is empty")
	}
	return data, nil
}

// readOut loads a child's output file.
func readOut(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}
